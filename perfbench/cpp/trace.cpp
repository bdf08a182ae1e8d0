#include "trace.h"

#include <cstdio>
#include <mutex>

#include "bench_util.h"
#include "wire/tunnel.h"

namespace rnlb::trace {

namespace {

std::atomic<int> g_phase{kOff};

std::mutex g_logs_mutex;
std::vector<std::unique_ptr<ThreadLog>>& logs() {
  static std::vector<std::unique_ptr<ThreadLog>> all;
  return all;
}

ThreadLog& local() {
  thread_local ThreadLog* log = [] {
    auto owned = std::make_unique<ThreadLog>();
    owned->stack.reserve(64);
    ThreadLog* raw = owned.get();
    std::lock_guard<std::mutex> lock(g_logs_mutex);
    logs().push_back(std::move(owned));
    return raw;
  }();
  return *log;
}

Acc& acc_of(ThreadLog& log, const ThreadLog::Open& open) {
  return log.acc[open.phase][static_cast<std::size_t>(open.kind)];
}

}  // namespace

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kSendServer: return "transport.send.server";
    case Kind::kSendRis: return "transport.send.ris";
    case Kind::kIngest: return "routeserver.ingest";
    case Kind::kReplay: return "ris.replay";
    case Kind::kRunFor: return "simnet.run_for";
    case Kind::kPoll: return "transport.poll";
    case Kind::kShardLoop: return "sharded.loop";
    case Kind::kPump: return "bench.pump";
    case Kind::kProbe: return "bench.probe";
    case Kind::kApiDesign: return "api.design";
    case Kind::kApiReserve: return "api.reserve";
    case Kind::kApiDeploy: return "api.deploy";
    case Kind::kApiTeardown: return "api.teardown";
    case Kind::kApiRead: return "api.read";
    case Kind::kConnect: return "sharded.connect_ports";
    case Kind::kCount: break;
  }
  return "?";
}

// Relaxed throughout: the phase only selects which accumulator a span lands
// in; a span opened a moment before a switch lands in the old phase.
void set_phase(int p) { g_phase.store(p, std::memory_order_relaxed); }
int phase() { return g_phase.load(std::memory_order_relaxed); }

bool begin(Kind kind, std::uint64_t frame) {
  const int p = phase();
  if (p == kOff) return false;
  ThreadLog& log = local();
  std::int32_t raw_index = -1;
  if (log.raw.size() < ThreadLog::kRawCap) {
    raw_index = static_cast<std::int32_t>(log.raw.size());
    RawSpan span;
    span.parent = log.stack.empty() ? -1 : log.stack.back().raw_index;
    span.kind = kind;
    span.phase = static_cast<std::uint8_t>(p);
    span.frame = frame;
    log.raw.push_back(span);
  }
  const std::int64_t start = now_ns();
  if (raw_index >= 0) log.raw[static_cast<std::size_t>(raw_index)].start = start;
  log.stack.push_back({kind, static_cast<std::uint8_t>(p), start, 0, raw_index});
  return true;
}

void end() {
  const std::int64_t stop = now_ns();
  ThreadLog& log = local();
  const ThreadLog::Open open = log.stack.back();
  log.stack.pop_back();
  const std::int64_t dur = stop - open.start;
  Acc& acc = acc_of(log, open);
  ++acc.count;
  acc.total_ns += dur;
  acc.self_ns += dur - open.child_ns;
  if (!log.stack.empty()) log.stack.back().child_ns += dur;
  if (open.raw_index >= 0) log.raw[static_cast<std::size_t>(open.raw_index)].end = stop;
}

void end_if(Kind kind) {
  ThreadLog& log = local();
  if (!log.stack.empty() && log.stack.back().kind == kind) end();
}

void add_aux(std::uint64_t value) {
  ThreadLog& log = local();
  if (!log.stack.empty()) acc_of(log, log.stack.back()).aux += value;
}

void max_aux(std::uint64_t value) {
  ThreadLog& log = local();
  if (log.stack.empty()) return;
  Acc& acc = acc_of(log, log.stack.back());
  if (value > acc.aux_max) acc.aux_max = value;
}

std::vector<ThreadLog*> all_logs() {
  std::lock_guard<std::mutex> lock(g_logs_mutex);
  std::vector<ThreadLog*> out;
  for (auto& log : logs()) out.push_back(log.get());
  return out;
}

std::vector<Acc> totals(int p) {
  std::vector<Acc> out(kKinds);
  for (ThreadLog* log : all_logs()) {
    for (std::size_t k = 0; k < kKinds; ++k) out[k].merge(log->acc[p][k]);
  }
  return out;
}

bool write_spans(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread,index,kind,phase,start_ns,end_ns,parent,frame\n");
  std::size_t t = 0;
  for (ThreadLog* log : all_logs()) {
    for (std::size_t i = 0; i < log->raw.size(); ++i) {
      const RawSpan& s = log->raw[i];
      if (s.end == 0) continue;  // still open when the run ended
      std::fprintf(f, "%zu,%zu,%s,%u,%lld,%lld,%d,%llu\n", t, i,
                   kind_name(s.kind), s.phase, static_cast<long long>(s.start),
                   static_cast<long long>(s.end), s.parent,
                   static_cast<unsigned long long>(s.frame));
    }
    ++t;
  }
  return std::fclose(f) == 0;
}

TimedTransport::TimedTransport(std::unique_ptr<transport::Transport> inner,
                               Role role, WireCapture* capture)
    : inner_(std::move(inner)), role_(role), capture_(capture) {}

void TimedTransport::send(util::BytesView bytes) {
  Span span(role_ == Role::kServerEnd ? Kind::kSendServer : Kind::kSendRis);
  inner_->send(bytes);
  if (span.open()) {
    add_aux(bytes.size());
    max_aux(inner_->queued_bytes());
  }
}

void TimedTransport::set_receive_handler(ReceiveHandler handler) {
  if (!handler) {
    inner_->set_receive_handler(nullptr);
    return;
  }
  const Kind kind = role_ == Role::kServerEnd ? Kind::kIngest : Kind::kReplay;
  WireCapture* capture = capture_;
  inner_->set_receive_handler(
      [kind, capture, handler = std::move(handler)](util::BytesView chunk) {
        if (capture != nullptr && !capture->full) {
          if (capture->bytes + chunk.size() <= WireCapture::kByteCap) {
            capture->chunks.emplace_back(chunk.begin(), chunk.end());
            capture->bytes += chunk.size();
          } else {
            capture->full = true;
          }
        }
        Span span(kind);
        handler(chunk);
      });
}

std::unique_ptr<transport::Transport> maybe_wrap(
    std::unique_ptr<transport::Transport> end, TimedTransport::Role role,
    bool traced, WireCapture* capture) {
  if (!traced) return end;
  return std::make_unique<TimedTransport>(std::move(end), role, capture);
}

std::size_t run_for(simnet::Network& net, util::Duration d) {
  Span span(Kind::kRunFor);
  const std::size_t events = net.run_for(d);
  if (span.open()) add_aux(events);
  return events;
}

std::size_t run_once(transport::TcpEventLoop& loop) {
  Span span(Kind::kPoll);
  const std::size_t handled = loop.run_once(0);
  if (span.open() && handled == 0) add_aux(1);
  return handled;
}

util::Json handle(core::ApiServer& api, const util::Json& request, Kind kind) {
  Span span(kind);
  return api.handle(request);
}

util::Status connect_ports(routeserver::ShardedRouteServer& server,
                           wire::PortId a, wire::PortId b) {
  Span span(Kind::kConnect);
  return server.connect_ports(a, b);
}

std::pair<std::int64_t, std::uint64_t> replay_decode(
    const std::vector<WireCapture*>& captures) {
  std::int64_t elapsed = 0;
  std::uint64_t frames = 0;
  for (const WireCapture* capture : captures) {
    wire::MessageDecoder decoder;
    const std::int64_t start = now_ns();
    for (const util::Bytes& chunk : capture->chunks) {
      for (const auto& message : decoder.feed_views(chunk)) {
        if (message.type == wire::MessageType::kData) ++frames;
      }
    }
    elapsed += now_ns() - start;
  }
  return {elapsed, frames};
}

}  // namespace rnlb::trace
