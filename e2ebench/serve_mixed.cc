// serve-mixed: the stats service over loopback TCP while re-ANALYZE keeps
// publishing journaled epochs.
//
// Set-up writes a 16-column, 250k-row auto-codec pack, counts exact D and
// boots the service: LoadTableAuto, an empty journal directory,
// StatsService, SocketServer on 127.0.0.1 with one ServeConnection thread
// per connection, and the first GET_STATS answered over the socket.
//
// Load is an open loop from this process. Two reader connections each have
// one paced sender thread and one receiver thread; requests are pipelined
// and matched by request id: 98% GET_STATS (Zipf-skewed over the columns),
// 2% ANALYZE force=false. The main thread holds a third connection and
// sends ANALYZE force=true every 250 ms. The loop runs three fixed offered
// rates; every latency is measured from the moment the request was due.
//
// The traced run replaces ServeConnection with the same
// Receive -> DecodeMessage -> Submit -> EncodeMessage -> Send loop written
// here, one span per call.

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "catalog/concurrent_catalog.h"
#include "catalog/durable_catalog.h"
#include "datagen/zipf.h"
#include "ingest/incremental_stats.h"
#include "serve/protocol.h"
#include "serve/socket_transport.h"
#include "serve/stats_service.h"
#include "storage/table_loader.h"
#include "trace.h"
#include "workloads.h"

namespace e2e {
namespace {

constexpr int64_t kRows = 250'000;
constexpr int kColumns = 16;
constexpr int kAnalyzeThreads = 1;  // the service's AnalyzeTable workers
constexpr double kFraction = 0.01;
// Smaller blocks than the default 4096 keep one sampled re-ANALYZE near
// 55 ms, a fifth of the writer period; with 4096-row blocks a 1% sample
// takes longer than the period and the reads never see a quiet moment.
constexpr int64_t kBlockRows = 512;
constexpr int kReaders = 2;  // reader connections, 2 load threads each
constexpr int64_t kWriterPeriodNs = 250'000'000;
constexpr double kAnalyzeShare = 0.02;
constexpr double kColumnSkew = 1.0;
constexpr int kBoots = 5;
constexpr int kRecoveries = 3;
constexpr double kLatencyLimitUs = 1000.0;
constexpr int64_t kSpinNs = 10'000;  // the sender busy-waits at most this
// Offered rates (requests per second over both reader connections),
// about 25%, 50% and 80% of the open-loop capacity measured at the commit
// that introduced the benchmark. Fixed: later changes are measured against
// the same load.
constexpr double kRates[3] = {22'000.0, 45'000.0, 72'000.0};
constexpr const char* kRateNames[3] = {"low", "mid", "high"};
// Share of the measuring budget each rate step gets.
constexpr double kStepShare[3] = {0.25, 0.45, 0.30};
constexpr double kWarmupSeconds = 0.5;
constexpr int64_t kDrainNs = 10'000'000'000;  // wait for replies after a step

ndv::AnalyzeOptions ServiceAnalyzeOptions(uint64_t seed) {
  ndv::AnalyzeOptions options;
  options.sample_fraction = kFraction;
  options.estimator = "AE";
  options.threads = kAnalyzeThreads;
  options.seed = seed;
  return options;
}

std::unique_ptr<ndv::Transport> Connect(uint16_t port) {
  auto transport = ndv::ConnectSocket("127.0.0.1", port);
  if (!transport.ok()) Die("connect failed: " + transport.status().ToString());
  return *std::move(transport);
}

// Sends one request and waits for its reply (the writer and boot probes).
ndv::StatusOr<ndv::Message> Call(ndv::Transport& transport,
                                 const ndv::Message& request) {
  const ndv::Status sent = transport.Send(ndv::EncodeMessage(request));
  if (!sent.ok()) return sent;
  auto payload = transport.Receive(30'000);
  if (!payload.ok()) return payload.status();
  return ndv::DecodeMessage(*payload);
}

ndv::Message GetStats(const std::string& column, uint64_t id) {
  ndv::Message request;
  request.type = ndv::MessageType::kGetStats;
  request.request_id = id;
  request.column = column;
  return request;
}

// Server time (receive to encoded reply) per request id of one connection,
// filled by the traced server loop and read by the client once the reply
// arrived.
using ServerTimes = std::vector<std::atomic<int64_t>>;

// The benchmark-side stand-in for ServeConnection: the same calls, one
// span each.
void TracedServeConnection(ndv::Transport& transport,
                           ndv::StatsService& service,
                           const ndv::ConcurrentStatsCatalog& shadow,
                           ServerTimes* server_ns) {
  for (;;) {
    auto payload = transport.Receive(0);
    if (!payload.ok()) return;
    trace::Span root("serve.request");
    const int64_t root_start = NowNs();
    ndv::StatusOr<ndv::Message> request = ndv::InternalError("unset");
    {
      trace::Span span("serve.decode", root.id());
      request = ndv::DecodeMessage(*payload);
    }
    ndv::Message reply;
    {
      trace::Span span("serve.submit", root.id());
      reply = request.ok() ? service.Submit(*request)
                           : ndv::ErrorMessage(request.status());
    }
    std::string wire;
    {
      trace::Span span("serve.encode", root.id());
      wire = ndv::EncodeMessage(reply);
    }
    // Server time is stored before the reply leaves, so the client always
    // finds it; the send itself counts as transport.
    if (request.ok() && server_ns != nullptr &&
        request->request_id < server_ns->size()) {
      (*server_ns)[request->request_id].store(NowNs() - root_start,
                                              std::memory_order_release);
    }
    bool sent = false;
    {
      trace::Span span("serve.send", root.id());
      sent = transport.Send(std::move(wire)).ok();
    }
    root.Close();
    if (!sent) return;
    if (request.ok() && request->type == ndv::MessageType::kGetStats) {
      trace::Span span("catalog.snapshot");
      (void)shadow.Snapshot()->catalog.Find(request->column);
    }
  }
}

// A booted service with its listening socket and connection threads.
class Server {
 public:
  Server(const std::string& pack, const std::string& wal, uint64_t seed,
         bool traced, const ndv::ConcurrentStatsCatalog* shadow)
      : traced_(traced), shadow_(shadow) {
    auto table = ndv::LoadTableAuto(pack);
    if (!table.ok()) Die("cannot load pack: " + table.status().ToString());
    table_ = std::make_shared<const ndv::Table>(*std::move(table));
    ndv::DurableCatalogOptions journal;
    journal.dir = wal;
    journal.fsync = ndv::FsyncPolicy::kEveryRecord;
    auto durable = ndv::DurableCatalog::Open(journal);
    if (!durable.ok()) {
      Die("cannot open journal: " + durable.status().ToString());
    }
    durable_ = *std::move(durable);
    ndv::StatsServiceOptions options;
    options.analyze = ServiceAnalyzeOptions(seed);
    options.durable = durable_.get();
    service_ = std::make_unique<ndv::StatsService>(table_, options);
    auto listener = ndv::SocketServer::Listen(0);
    if (!listener.ok()) Die("listen failed: " + listener.status().ToString());
    listener_ = *std::move(listener);
  }

  ~Server() { Stop(); }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Opens a client connection served by its own server thread.
  std::unique_ptr<ndv::Transport> Open(ServerTimes* server_ns = nullptr,
                                       int cpu = -1) {
    auto client = Connect(listener_->port());
    auto accepted = listener_->Accept();
    if (!accepted.ok()) Die("accept failed: " + accepted.status().ToString());
    ndv::Transport* server_side = accepted->get();
    server_sides_.push_back(*std::move(accepted));
    threads_.emplace_back([this, server_side, server_ns, cpu] {
      PinToCpu(cpu);
      if (traced_) {
        TracedServeConnection(*server_side, *service_, *shadow_, server_ns);
      } else {
        ndv::ServeConnection(*server_side, *service_);
      }
    });
    return client;
  }

  // Every client connection must be closed first: the server threads end
  // when their peer hangs up.
  void Stop() {
    for (std::thread& thread : threads_) thread.join();
    threads_.clear();
    server_sides_.clear();
    if (listener_ != nullptr) listener_->Shutdown();
  }

  ndv::StatsService& service() { return *service_; }
  ndv::DurableCatalog& durable() { return *durable_; }

 private:
  const bool traced_;
  const ndv::ConcurrentStatsCatalog* const shadow_;
  std::shared_ptr<const ndv::Table> table_;
  std::unique_ptr<ndv::DurableCatalog> durable_;
  std::unique_ptr<ndv::StatsService> service_;
  std::unique_ptr<ndv::SocketServer> listener_;
  std::vector<std::unique_ptr<ndv::Transport>> server_sides_;
  std::vector<std::thread> threads_;
};

struct Reference {
  std::vector<std::string> names;
  ndv::StatsCatalog catalog;  // what every epoch publishes
  std::vector<int64_t> truth;
};

// Boots a service and times it to the first GET_STATS reply. Returns the
// client connection used for that first request.
std::unique_ptr<ndv::Transport> Boot(std::unique_ptr<Server>& server,
                                     const std::string& pack,
                                     const std::string& wal, uint64_t seed,
                                     const Reference& reference,
                                     Result& result, double* boot_ns,
                                     bool traced = false,
                                     const ndv::ConcurrentStatsCatalog*
                                         shadow = nullptr) {
  const int64_t start = NowNs();
  server = std::make_unique<Server>(pack, wal, seed, traced, shadow);
  auto client = server->Open();
  auto reply = Call(*client, GetStats(reference.names[0], 0));
  *boot_ns = static_cast<double>(NowNs() - start);
  result.Check(reply.ok() && reply->type == ndv::MessageType::kStatsReply &&
                   SameStats(reply->stats, reference.catalog.entries()[0]),
               "first reply after boot carries the published statistics");
  return client;
}

struct Step {
  std::vector<double> get_latency_us;  // from the scheduled send
  // The same latencies grouped by writer period (by due time), so each
  // group holds one forced re-ANALYZE.
  std::vector<std::vector<double>> periods;
  std::vector<double> late_us;         // generator lateness per send
  std::vector<double> transport_us;    // traced only
  int64_t sent = 0;
  int64_t failed = 0;
  int64_t shed = 0;
  int64_t outstanding_max = 0;
  uint64_t max_epoch = 0;  // newest epoch any reply carried
  double backlog_mid = 0.0;
  double backlog_end = 0.0;
  double rate = 0.0;

  // Latency quantile q as the median over writer periods of each period's
  // own quantile: one stall more or less in a step moves it by one
  // period's share, not by the stall.
  double GetQuantile(double q) const {
    std::vector<double> per_period;
    for (const std::vector<double>& period : periods) {
      if (period.size() >= 100) per_period.push_back(Quantile(period, q));
    }
    return per_period.empty() ? Quantile(get_latency_us, q)
                              : Median(per_period);
  }
  double GetP50() const { return GetQuantile(0.5); }
  double GetP99() const { return GetQuantile(0.99); }
  // A queue that grew by more than one latency limit's worth of requests
  // between mid-step and the end of the step is a growing backlog.
  bool BacklogGrew() const {
    return backlog_end - backlog_mid > rate * kLatencyLimitUs / 1e6;
  }
  bool MeetsLimit() const {
    return failed == 0 && !BacklogGrew() && GetP99() <= kLatencyLimitUs;
  }
};

// One reader connection's share of a step.
struct Lane {
  ndv::Transport* transport = nullptr;
  ServerTimes* server_ns = nullptr;  // traced only
  uint64_t first_id = 0;
  int64_t requests = 0;
  int64_t start_ns = 0;
  double period_ns = 0.0;
  uint64_t seed = 0;
  bool traced = false;
  int cpu = -1;

  // Filled by the threads.
  std::vector<int64_t> due_ns, sent_ns;
  std::vector<uint8_t> is_get;
  std::vector<int64_t> outstanding_at_send;
  std::atomic<int64_t> outstanding{0};
  std::atomic<int64_t> sent{0};
  std::atomic<bool> send_failed{false};
  std::vector<double> get_latency_us, transport_us;
  std::vector<int64_t> get_due_ns;  // due time of each get_latency_us entry
  int64_t received = 0, failed = 0, shed = 0;
  uint64_t max_epoch = 0;
};

void SendLoop(Lane& lane, const Reference& reference) {
  // A 1 us timer slack lets the pacing sleep wake close to the due time
  // instead of the default 50 us late.
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
  ndv::Rng rng(lane.seed);
  const ndv::ZipfianGenerator columns(kColumns, kColumnSkew);
  for (int64_t k = 0; k < lane.requests; ++k) {
    const auto i = static_cast<size_t>(k);
    ndv::Message request;
    request.request_id = lane.first_id + static_cast<uint64_t>(k);
    if (rng.NextDouble() < kAnalyzeShare) {
      request.type = ndv::MessageType::kAnalyze;
      request.force = false;
    } else {
      request.type = ndv::MessageType::kGetStats;
      const int64_t c = std::min<int64_t>(columns.Sample(rng), kColumns - 1);
      request.column = reference.names[static_cast<size_t>(c)];
      lane.is_get[i] = 1;
    }
    const int64_t due =
        lane.start_ns + static_cast<int64_t>(static_cast<double>(k) *
                                             lane.period_ns);
    lane.due_ns[i] = due;
    // Sleep to just before the due time, then spin the last stretch.
    const int64_t now = NowNs();
    if (due - now > kSpinNs) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(due - now - kSpinNs));
    }
    while (NowNs() < due) {
    }
    std::string payload;
    if (lane.traced) {
      trace::Span span("client.encode");
      payload = ndv::EncodeMessage(request);
    } else {
      payload = ndv::EncodeMessage(request);
    }
    lane.sent_ns[i] = NowNs();
    lane.outstanding_at_send[i] =
        lane.outstanding.fetch_add(1, std::memory_order_relaxed) + 1;
    lane.sent.store(k + 1, std::memory_order_release);
    if (!lane.transport->Send(std::move(payload)).ok()) {
      lane.send_failed.store(true);
      return;
    }
  }
}

void ReceiveLoop(Lane& lane, const Reference& reference,
                 const std::atomic<bool>& senders_done) {
  int64_t drain_deadline = 0;  // set once the senders are done
  while (true) {
    const int64_t sent = lane.sent.load(std::memory_order_acquire);
    if (lane.received >= lane.requests) return;
    if (senders_done.load()) {
      if (lane.received >= sent) return;
      // Replies still missing after the drain time count as failed.
      if (drain_deadline == 0) drain_deadline = NowNs() + kDrainNs;
      if (NowNs() > drain_deadline) return;
    }
    auto payload = lane.transport->Receive(100);
    if (!payload.ok()) {
      if (payload.status().code() == ndv::StatusCode::kDeadlineExceeded) {
        continue;
      }
      return;
    }
    const int64_t now = NowNs();
    ndv::StatusOr<ndv::Message> reply = ndv::InternalError("unset");
    if (lane.traced) {
      trace::Span span("client.decode");
      reply = ndv::DecodeMessage(*payload);
    } else {
      reply = ndv::DecodeMessage(*payload);
    }
    ++lane.received;
    lane.outstanding.fetch_sub(1, std::memory_order_relaxed);
    if (!reply.ok() || reply->request_id < lane.first_id ||
        reply->request_id >=
            lane.first_id + static_cast<uint64_t>(lane.requests)) {
      ++lane.failed;
      continue;
    }
    const auto i = static_cast<size_t>(reply->request_id - lane.first_id);
    // The sender published request i's schedule before sending it.
    while (lane.sent.load(std::memory_order_acquire) <=
           static_cast<int64_t>(i)) {
    }
    if (reply->type == ndv::MessageType::kError) {
      ++lane.failed;
      if (reply->error_code == ndv::StatusCode::kUnavailable) ++lane.shed;
      if (lane.is_get[i] != 0) {
        lane.get_latency_us.push_back(1e12);
        lane.get_due_ns.push_back(lane.due_ns[i]);
      }
      continue;
    }
    if (lane.is_get[i] != 0) {
      const auto expected = reference.catalog.Find(reply->stats.column_name);
      if (reply->type != ndv::MessageType::kStatsReply ||
          !expected.has_value() || !SameStats(reply->stats, *expected) ||
          reply->epoch == 0) {
        ++lane.failed;
      }
      lane.get_latency_us.push_back(NsToUs(now - lane.due_ns[i]));
      lane.get_due_ns.push_back(lane.due_ns[i]);
      if (lane.traced && lane.server_ns != nullptr) {
        const int64_t server = (*lane.server_ns)[reply->request_id].load(
            std::memory_order_acquire);
        lane.transport_us.push_back(NsToUs(now - lane.sent_ns[i] - server));
      }
    } else if (reply->type != ndv::MessageType::kAnalyzeReply) {
      ++lane.failed;
    }
    lane.max_epoch = std::max(lane.max_epoch, reply->epoch);
  }
}

struct Writer {
  std::vector<double> analyze_ns;
  std::vector<uint64_t> epochs;
  int64_t failed = 0;
};

// Runs one offered rate: the two reader lanes in their own threads, the
// writer on this thread until the readers' schedule ends.
Step RunStep(double rate, double seconds, std::vector<ndv::Transport*> readers,
             ndv::Transport& writer_connection, Writer& writer,
             const Reference& reference, uint64_t seed, uint64_t* next_id,
             std::vector<ServerTimes*> server_ns, bool traced) {
  const double lane_rate = rate / kReaders;
  const auto per_lane = static_cast<int64_t>(lane_rate * seconds);
  const int64_t start = NowNs() + 2'000'000;
  std::vector<std::unique_ptr<Lane>> lanes;
  for (int r = 0; r < kReaders; ++r) {
    auto lane = std::make_unique<Lane>();
    lane->transport = readers[static_cast<size_t>(r)];
    lane->server_ns = server_ns[static_cast<size_t>(r)];
    lane->first_id = *next_id;
    lane->requests = per_lane;
    lane->period_ns = 1e9 / lane_rate;
    lane->start_ns =
        start + static_cast<int64_t>(lane->period_ns * r / kReaders);
    lane->seed =
        ndv::SplitMix64(seed * 7919 + *next_id + static_cast<uint64_t>(r));
    lane->traced = traced;
    lane->cpu = r;
    const auto n = static_cast<size_t>(per_lane);
    lane->due_ns.resize(n);
    lane->sent_ns.resize(n);
    lane->is_get.resize(n);
    lane->outstanding_at_send.resize(n);
    lanes.push_back(std::move(lane));
  }
  *next_id += static_cast<uint64_t>(per_lane);
  std::atomic<bool> senders_done{false};
  std::vector<std::thread> senders, receivers;
  for (auto& lane : lanes) {
    Lane* l = lane.get();
    receivers.emplace_back([l, &reference, &senders_done] {
      PinToCpu(l->cpu);
      ReceiveLoop(*l, reference, senders_done);
    });
    senders.emplace_back([l, &reference] {
      PinToCpu(l->cpu);
      SendLoop(*l, reference);
    });
  }
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  int64_t next_write = start;
  while (NowNs() < end) {
    const int64_t wait = std::min(next_write, end) - NowNs();
    if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
    if (NowNs() >= end) break;
    ndv::Message request;
    request.type = ndv::MessageType::kAnalyze;
    request.force = true;
    request.request_id = writer.epochs.size() + 1;
    const int64_t sent = NowNs();
    auto reply = Call(writer_connection, request);
    const int64_t done = NowNs();
    if (!reply.ok() || reply->type != ndv::MessageType::kAnalyzeReply ||
        !reply->refreshed) {
      ++writer.failed;
    } else {
      writer.analyze_ns.push_back(static_cast<double>(done - sent));
      writer.epochs.push_back(reply->epoch);
    }
    next_write += kWriterPeriodNs;
    while (next_write < NowNs()) next_write += kWriterPeriodNs;
  }
  for (std::thread& t : senders) t.join();
  senders_done.store(true);
  for (std::thread& t : receivers) t.join();

  Step step;
  step.rate = rate;
  for (auto& lane : lanes) {
    Lane& l = *lane;
    const int64_t sent = l.sent.load();
    step.sent += sent;
    step.failed += l.failed + (sent - l.received) +
                   (l.send_failed.load() ? 1 : 0);
    step.shed += l.shed;
    step.max_epoch = std::max(step.max_epoch, l.max_epoch);
    step.get_latency_us.insert(step.get_latency_us.end(),
                               l.get_latency_us.begin(),
                               l.get_latency_us.end());
    for (size_t g = 0; g < l.get_latency_us.size(); ++g) {
      const auto period =
          static_cast<size_t>((l.get_due_ns[g] - start) / kWriterPeriodNs);
      if (step.periods.size() <= period) step.periods.resize(period + 1);
      step.periods[period].push_back(l.get_latency_us[g]);
    }
    step.transport_us.insert(step.transport_us.end(), l.transport_us.begin(),
                             l.transport_us.end());
    double mid = 0, end_window = 0;
    int64_t mid_n = 0, end_n = 0;
    for (int64_t k = 0; k < sent; ++k) {
      const auto i = static_cast<size_t>(k);
      step.late_us.push_back(NsToUs(l.sent_ns[i] - l.due_ns[i]));
      step.outstanding_max =
          std::max(step.outstanding_max, l.outstanding_at_send[i]);
      if (k >= l.requests * 4 / 10 && k < l.requests / 2) {
        mid += static_cast<double>(l.outstanding_at_send[i]);
        ++mid_n;
      } else if (k >= l.requests * 9 / 10) {
        end_window += static_cast<double>(l.outstanding_at_send[i]);
        ++end_n;
      }
    }
    step.backlog_mid += mid_n == 0 ? 0.0 : mid / static_cast<double>(mid_n);
    step.backlog_end +=
        end_n == 0 ? 0.0 : end_window / static_cast<double>(end_n);
  }
  return step;
}

struct Phase {
  Step steps[3];
  Writer writer;
  uint64_t last_epoch = 0;
};

// Boots the serving instance, runs the three rates and checks what every
// reply and the final published state carried.
Phase ServePhase(const std::string& pack, const std::string& wal,
                 const Options& options, const Reference& reference,
                 double seconds, bool traced,
                 const ndv::ConcurrentStatsCatalog* shadow, Result& result,
                 std::unique_ptr<Server>& server) {
  Phase phase;
  double boot_ns = 0;
  Boot(server, pack, wal, options.seed, reference, result, &boot_ns, traced,
       shadow)
      .reset();

  uint64_t total_ids =
      static_cast<uint64_t>(kRates[0] / kReaders * kWarmupSeconds) + 1;
  for (int s = 0; s < 3; ++s) {
    total_ids += static_cast<uint64_t>(kRates[s] / kReaders * seconds *
                                       kStepShare[s]) + 1;
  }
  // Fixed placement: reader r's sender, receiver and server thread share
  // CPU r; the writer's server thread, which runs the re-ANALYZE, has
  // CPU 2 and the writer itself CPU 3.
  std::vector<std::unique_ptr<ServerTimes>> server_ns;
  std::vector<std::unique_ptr<ndv::Transport>> readers;
  for (int r = 0; r < kReaders; ++r) {
    server_ns.push_back(std::make_unique<ServerTimes>(total_ids));
    readers.push_back(server->Open(server_ns.back().get(), r));
  }
  auto writer_connection = server->Open(nullptr, 2);
  PinToCpu(3);
  uint64_t next_id = 0;
  // An unmeasured warm-up at the low rate: connections, caches and the
  // first forced ANALYZE settle before the first measured step.
  const Step warmup = RunStep(
      kRates[0], kWarmupSeconds, {readers[0].get(), readers[1].get()},
      *writer_connection, phase.writer, reference, options.seed + 1000,
      &next_id, {server_ns[0].get(), server_ns[1].get()}, traced);
  result.AddOps(warmup.sent, warmup.failed);
  for (int s = 0; s < 3; ++s) {
    phase.steps[s] = RunStep(
        kRates[s], seconds * kStepShare[s],
        {readers[0].get(), readers[1].get()}, *writer_connection,
        phase.writer, reference, options.seed + static_cast<uint64_t>(s),
        &next_id, {server_ns[0].get(), server_ns[1].get()}, traced);
  }
  readers.clear();
  writer_connection.reset();
  server->Stop();

  // Every epoch publishes the same catalog (the service re-analyzes with a
  // fixed seed), so a reply is right when it equals the reference and its
  // epoch was published. Epochs rise by one per forced ANALYZE.
  const Writer& writer = phase.writer;
  bool ascending = true;
  for (size_t i = 0; i < writer.epochs.size(); ++i) {
    ascending = ascending && writer.epochs[i] == i + 2;
  }
  result.Check(ascending, "forced ANALYZE publishes consecutive epochs");
  result.Check(writer.failed == 0, "every forced ANALYZE succeeded");
  phase.last_epoch = server->service().epoch();
  result.Check(phase.last_epoch == writer.epochs.size() + 1 &&
                   server->durable().epoch() == phase.last_epoch &&
                   SameCatalog(server->service().Snapshot()->catalog,
                               reference.catalog),
               "served state equals the last journaled publication");
  for (const Step& step : phase.steps) {
    result.AddOps(step.sent, step.failed);
    result.Check(step.max_epoch <= phase.last_epoch,
                 "every reply names an epoch the run published");
  }
  result.AddOps(static_cast<int64_t>(writer.analyze_ns.size()) + writer.failed,
                writer.failed);
  return phase;
}

}  // namespace

void RunServeMixed(const Options& options, Result& result) {
  const std::string pack = options.workdir + "/serve.ndvpack";
  Reference reference;
  ndv::Table heap;  // the generated rows, the heap copy for tracing
  std::vector<double> setup_seconds;
  std::unique_ptr<Server> server;
  for (int i = 0; i < kSetupRepeats; ++i) {
    RemoveTree(options.workdir + "/wal-setup");
    const int64_t start = NowNs();
    heap = MakeMixedTable(kRows, kColumns, options.seed);
    WritePackSynced(heap, pack, kBlockRows);
    reference.truth = ExactDistinct(heap, 4);
    reference.names.clear();
    for (int64_t c = 0; c < heap.NumColumns(); ++c) {
      reference.names.push_back(heap.column_name(c));
    }
    {
      server = std::make_unique<Server>(pack, options.workdir + "/wal-setup",
                                        options.seed, false, nullptr);
      auto client = server->Open();
      auto reply = Call(*client, GetStats(reference.names[0], 0));
      if (!reply.ok()) Die("set-up boot did not answer");
      reference.catalog = server->service().Snapshot()->catalog;
      client.reset();
      server->Stop();
      server.reset();
    }
    setup_seconds.push_back(NsToMs(NowNs() - start) / 1e3);
  }
  StampEnvironment(result);
  const std::vector<std::string> codecs = StampPack(result, pack);
  result.Stamp("rows", static_cast<double>(kRows));
  result.Stamp("analyze_threads", kAnalyzeThreads);
  result.Stamp("sample_fraction", kFraction);
  result.Stamp("reader_connections", kReaders);
  result.Stamp("load_threads", 2 * kReaders);
  result.Stamp("writer_period_ms", kWriterPeriodNs / 1e6);
  result.Stamp("rate_low_per_s", kRates[0]);
  result.Stamp("rate_mid_per_s", kRates[1]);
  result.Stamp("rate_high_per_s", kRates[2]);
  result.Metric("setup_s", Median(setup_seconds), "s");

  // The published catalog must be what AnalyzeTable computes for the
  // same table and options.
  {
    auto table = ndv::LoadTableAuto(pack);
    if (!table.ok()) Die("cannot load pack");
    const ndv::StatsCatalog expected =
        ndv::AnalyzeTable(*table, ServiceAnalyzeOptions(options.seed));
    result.Check(SameCatalog(expected, reference.catalog),
                 "service publishes AnalyzeTable's catalog");
  }
  // Every published epoch carries the reference catalog (the checks on
  // replies and recovery below hold the service to that), so scoring it
  // once scores every published (column, epoch) pair.
  Accuracy accuracy;
  for (size_t c = 0; c < reference.catalog.entries().size(); ++c) {
    accuracy.Score(reference.catalog.entries()[c], reference.truth[c]);
  }
  result.Check(accuracy.malformed() == 0, "every bracket well-formed");

  // Fresh boots.
  std::vector<double> boot_ns;
  for (int i = 0; i < kBoots; ++i) {
    const std::string wal = options.workdir + "/wal-boot";
    RemoveTree(wal);
    double ns = 0;
    auto client = Boot(server, pack, wal, options.seed, reference, result, &ns);
    boot_ns.push_back(ns);
    client.reset();
    server->Stop();
    server.reset();
  }

  const double budget = options.trace ? options.seconds / 2 : options.seconds;
  const std::string wal = options.workdir + "/wal";
  RemoveTree(wal);
  const Phase phase = ServePhase(pack, wal, options, reference, budget, false,
                                 nullptr, result, server);
  server.reset();

  // Restart from the journal the run wrote, up to the first reply.
  std::vector<double> recover_ns;
  for (int i = 0; i < kRecoveries; ++i) {
    double ns = 0;
    auto client = Boot(server, pack, wal, options.seed, reference, result, &ns);
    recover_ns.push_back(ns);
    result.Check(server->durable().epoch() == phase.last_epoch &&
                     server->durable().recovery().epoch == phase.last_epoch &&
                     SameCatalog(server->durable().state(), reference.catalog),
                 "journal recovery reproduces the last published catalog");
    client.reset();
    server->Stop();
    server.reset();
  }

  const Step& mid = phase.steps[1];
  double max_rps = 0.0;
  for (const Step& step : phase.steps) {
    if (step.MeetsLimit()) max_rps = std::max(max_rps, step.rate);
  }
  std::vector<double> late;
  int64_t shed = 0, outstanding_max = 0;
  for (const Step& step : phase.steps) {
    late.insert(late.end(), step.late_us.begin(), step.late_us.end());
    shed += step.shed;
    outstanding_max = std::max(outstanding_max, step.outstanding_max);
    std::printf("rate %-4s %8.0f/s sent %8lld p50 %9.1f us p99 %9.1f us "
                "failed %lld backlog mid %.1f end %.1f "
                "late p50 %.1f p99 %.1f\n",
                kRateNames[&step - phase.steps], step.rate,
                static_cast<long long>(step.sent),
                step.GetP50(), step.GetP99(),
                static_cast<long long>(step.failed), step.backlog_mid,
                step.backlog_end, Quantile(step.late_us, 0.5),
                Quantile(step.late_us, 0.99));
  }
  result.Metric("analyze_ms", Median(phase.writer.analyze_ns) / 1e6, "ms");
  result.Metric("op_p50_us", mid.GetP50(), "us");
  result.Metric("op_p99_us", mid.GetP99(), "us");
  result.Metric("truth_in_bracket", accuracy.TruthInBracket(), "share");
  result.Metric("qerror_p50", accuracy.QErrorP50(), "ratio");
  result.Metric("qerror_max", accuracy.QErrorMax(), "ratio");
  result.Metric("scored_pairs", static_cast<double>(accuracy.pairs()),
                "count");
  result.Metric("boot_ms", Median(boot_ns) / 1e6, "ms");
  result.Metric("recover_ms", Median(recover_ns) / 1e6, "ms");
  result.Metric("get_p50_us", mid.GetP50(), "us");
  result.Metric("get_p99_us", mid.GetP99(), "us");
  result.Metric("serve_max_rps", max_rps, "1/s");
  result.Metric("serve.get_p99_us.low", phase.steps[0].GetP99(), "us");
  result.Metric("serve.get_p99_us.high", phase.steps[2].GetP99(), "us");
  result.Metric("serve.analyze_ms", Median(phase.writer.analyze_ns) / 1e6,
                "ms");
  result.Metric("serve.epochs_published",
                static_cast<double>(phase.writer.epochs.size()), "count");
  result.Metric("catalog.wal_bytes",
                static_cast<double>(FileBytes(
                    wal + "/" + std::string(ndv::DurableCatalog::kWalFile))) /
                    static_cast<double>(phase.last_epoch),
                "bytes");
  result.Metric("serve.shed", static_cast<double>(shed), "count");
  result.Metric("gen.late_us_p99", Quantile(late, 0.99), "us");
  result.Metric("gen.outstanding_max", static_cast<double>(outstanding_max),
                "count");
  if (!options.trace) return;

  // Traced boots: the StatsService constructor's two parts written out as
  // the calls it makes — AnalyzeTable, then one tracker warm-up per
  // column — with the same decomposition of AnalyzeTable as analyze-pack.
  trace::Clear();
  std::vector<AnalyzeLayers> analyze_layers(kBoots);
  std::vector<double> warm_ns;
  {
    auto table = ndv::LoadTableAuto(pack);
    if (!table.ok()) Die("cannot load pack");
    for (AnalyzeLayers& layers : analyze_layers) {
      trace::Span boot("serve.boot_split");
      const ndv::StatsCatalog catalog = TracedAnalyzeTable(
          *table, codecs, ServiceAnalyzeOptions(options.seed), boot.id(),
          layers);
      result.Check(SameCatalog(catalog, reference.catalog),
                   "traced decomposition reproduces the served catalog");
      trace::Span span("ingest.tracker_warm", boot.id());
      for (int64_t c = 0; c < table->NumColumns(); ++c) {
        ndv::IncrementalStatsOptions tracker_options;
        tracker_options.seed = options.seed + static_cast<uint64_t>(c) + 1;
        ndv::IncrementalStats tracker(tracker_options);
        table->column(c).PrepareFullScan();
        tracker.AppendBatch(ndv::FullColumnSlice(table->column(c)));
      }
      warm_ns.push_back(static_cast<double>(span.Close()));
      boot.Close();
      HashHeapReference(heap, layers);
    }
  }
  ReportAnalyzeLayers(result, analyze_layers);
  result.Metric("ingest.tracker_warm_ms", Median(warm_ns) / 1e6, "ms");

  const ndv::ConcurrentStatsCatalog shadow(reference.catalog);
  const std::string traced_wal = options.workdir + "/wal-traced";
  RemoveTree(traced_wal);
  const Phase traced = ServePhase(pack, traced_wal, options, reference, budget,
                                  true, &shadow, result, server);
  server.reset();
  const std::vector<trace::SpanRecord> spans = trace::Collect();
  const auto median_us = [&](const char* name) {
    return Median(trace::Durations(spans, name)) / 1e3;
  };
  std::vector<double> transport;
  for (const Step& step : traced.steps) {
    transport.insert(transport.end(), step.transport_us.begin(),
                     step.transport_us.end());
  }
  result.Metric("serve.decode_us", median_us("serve.decode"), "us");
  result.Metric("serve.submit_us", median_us("serve.submit"), "us");
  result.Metric("serve.encode_us", median_us("serve.encode"), "us");
  result.Metric("serve.transport_us", Median(transport), "us");
  result.Metric("catalog.snapshot_us", median_us("catalog.snapshot"), "us");
  trace::CheckUnaccounted(result, spans, "serve.request");
  result.Metric("trace.overhead_frac",
                traced.steps[1].GetP50() / mid.GetP50() - 1.0, "share");
  trace::Report(spans, options.trace_file);
}

}  // namespace e2e
