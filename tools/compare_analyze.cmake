# Runs `ndv_cli analyze` on two input files and fails unless both runs
# exit 0 and print byte-identical stdout. Used by ctest to show that the
# ndvpack formats give the same ANALYZE:
#
#   cmake -DNDV_CLI=<path to ndv_cli> -DLEFT=<file> -DRIGHT=<file>
#         -DFRACTION=<sample fraction> -P compare_analyze.cmake
foreach(side LEFT RIGHT)
  execute_process(
    COMMAND ${NDV_CLI} analyze --in=${${side}} --fraction=${FRACTION}
    OUTPUT_VARIABLE stdout_${side}
    RESULT_VARIABLE exit_${side})
  if(NOT exit_${side} EQUAL 0)
    message(FATAL_ERROR "ndv_cli analyze --in=${${side}} exited "
                        "${exit_${side}}")
  endif()
endforeach()
if(NOT stdout_LEFT STREQUAL stdout_RIGHT)
  message(FATAL_ERROR "ANALYZE output differs.\n"
                      "--- ${LEFT}\n${stdout_LEFT}\n"
                      "--- ${RIGHT}\n${stdout_RIGHT}")
endif()
