#include "vhp/net/replay.hpp"

#include <algorithm>
#include <deque>
#include <map>

#include "vhp/common/checksum.hpp"
#include "vhp/common/format.hpp"

namespace vhp::net {

namespace {

using obs::FrameRecord;
using obs::LinkDir;
using obs::LinkPort;

std::string bytes_diff(std::string_view what, const Bytes& a, const Bytes& b) {
  if (a.size() != b.size()) {
    return strformat("{} size: {} vs {}", what, a.size(), b.size());
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) {
      return strformat("{}[{}]: {} vs {}", what, i,
                       static_cast<unsigned>(a[i]),
                       static_cast<unsigned>(b[i]));
    }
  }
  return {};
}

template <typename T>
std::string field_diff(std::string_view type, std::string_view field, T a,
                       T b) {
  if (a == b) return {};
  return strformat("{}.{}: {} vs {}", type, field, a, b);
}

}  // namespace

std::string message_field_diff(const FrameRecord& expected,
                               const FrameRecord& actual) {
  // A clipped payload cannot be decoded; let the byte-level report speak.
  if (expected.truncated || actual.truncated) return {};
  auto lhs = decode(expected.payload);
  auto rhs = decode(actual.payload);
  if (!lhs.ok() || !rhs.ok()) return {};
  const MsgType lt = type_of(lhs.value());
  const MsgType rt = type_of(rhs.value());
  if (lt != rt) {
    return strformat("type: {} vs {}", to_string(lt), to_string(rt));
  }
  const Message& a = lhs.value();
  const Message& b = rhs.value();
  switch (lt) {
    case MsgType::kDataWrite: {
      const auto& x = std::get<DataWrite>(a);
      const auto& y = std::get<DataWrite>(b);
      std::string d = field_diff("DataWrite", "address", x.address, y.address);
      return d.empty() ? bytes_diff("DataWrite.data", x.data, y.data) : d;
    }
    case MsgType::kDataReadReq: {
      const auto& x = std::get<DataReadReq>(a);
      const auto& y = std::get<DataReadReq>(b);
      std::string d =
          field_diff("DataReadReq", "address", x.address, y.address);
      return d.empty()
                 ? field_diff("DataReadReq", "nbytes", x.nbytes, y.nbytes)
                 : d;
    }
    case MsgType::kDataReadResp: {
      const auto& x = std::get<DataReadResp>(a);
      const auto& y = std::get<DataReadResp>(b);
      std::string d =
          field_diff("DataReadResp", "address", x.address, y.address);
      return d.empty() ? bytes_diff("DataReadResp.data", x.data, y.data) : d;
    }
    case MsgType::kIntRaise:
      return field_diff("IntRaise", "vector", std::get<IntRaise>(a).vector,
                        std::get<IntRaise>(b).vector);
    case MsgType::kClockTick: {
      const auto& x = std::get<ClockTick>(a);
      const auto& y = std::get<ClockTick>(b);
      std::string d =
          field_diff("ClockTick", "sim_cycle", x.sim_cycle, y.sim_cycle);
      if (d.empty()) {
        d = field_diff("ClockTick", "n_ticks", x.n_ticks, y.n_ticks);
      }
      // An armed-timeline party against an unarmed recording (round 0) is
      // a divergence like any other field.
      return d.empty() ? field_diff("ClockTick", "round", x.round, y.round)
                       : d;
    }
    case MsgType::kTimeAck: {
      const auto& x = std::get<TimeAck>(a);
      const auto& y = std::get<TimeAck>(b);
      std::string d = field_diff("TimeAck", "board_tick", x.board_tick,
                                 y.board_tick);
      if (!d.empty()) return d;
      // One side advertising a lookahead and the other not (or different
      // values) is a divergence like any other field.
      if (x.lookahead != y.lookahead) {
        const auto show = [](const std::optional<u64>& v) {
          if (!v.has_value()) return std::string("none");
          if (*v == kLookaheadUnbounded) return std::string("unbounded");
          return strformat("{}", *v);
        };
        return strformat("TimeAck.lookahead: {} vs {}", show(x.lookahead),
                         show(y.lookahead));
      }
      d = field_diff("TimeAck", "round", x.round, y.round);
      return d.empty()
                 ? field_diff("TimeAck", "data_sent", x.data_sent, y.data_sent)
                 : d;
    }
    case MsgType::kShutdown:
      return {};
  }
  return {};
}

std::string grant_stats_text(const obs::Recording& recording) {
  struct NodeStats {
    u64 grants = 0;
    u64 min = ~u64{0};
    u64 max = 0;
    u64 total = 0;
    u64 acks = 0;
    u64 with_lookahead = 0;
    u64 unbounded = 0;
  };
  std::map<u32, NodeStats> nodes;
  for (const FrameRecord& f : recording.frames) {
    if (f.port != LinkPort::kClock || f.truncated) continue;
    auto msg = decode(f.payload);
    if (!msg.ok()) continue;
    if (const auto* tick = std::get_if<ClockTick>(&msg.value())) {
      NodeStats& n = nodes[f.node];
      ++n.grants;
      n.total += tick->n_ticks;
      n.min = std::min<u64>(n.min, tick->n_ticks);
      n.max = std::max<u64>(n.max, tick->n_ticks);
    } else if (const auto* ack = std::get_if<TimeAck>(&msg.value())) {
      NodeStats& n = nodes[f.node];
      ++n.acks;
      if (ack->lookahead.has_value()) {
        ++n.with_lookahead;
        if (*ack->lookahead == kLookaheadUnbounded) ++n.unbounded;
      }
    }
  }
  if (nodes.empty()) return {};
  std::string out = "sync grants (CLOCK traffic):\n";
  for (const auto& [node, n] : nodes) {
    out += strformat("  node {}: {} grants", node, n.grants);
    if (n.grants > 0) {
      out += strformat(", cycles min/mean/max {}/{}/{}", n.min,
                       n.total / n.grants, n.max);
    }
    out += strformat("; {} acks, {} with lookahead", n.acks, n.with_lookahead);
    if (n.unbounded > 0) out += strformat(" ({} unbounded)", n.unbounded);
    out += "\n";
  }
  return out;
}

std::vector<obs::SpanRecord> timeline_from_recordings(
    const obs::Recording& hw, const std::vector<obs::Recording>& boards) {
  std::vector<obs::SpanRecord> spans;

  // Rounds keyed by the grant's master sim-cycle: one barrier ticks every
  // due node at one cycle, so the key groups a round's scatter even on
  // unstamped recordings (round 0 on every tick).
  struct Round {
    u64 id = 0;
    u64 first_tx = ~u64{0};
    u64 last_tx = 0;
    u64 last_rx = 0;
  };
  std::map<u64, Round> rounds;
  u64 next_round = 0;

  struct PendingTick {
    u64 cycle = 0;
    u64 wall_ns = 0;
    u64 round = 0;
  };
  std::map<u32, std::deque<PendingTick>> pending;  // per node, FIFO

  std::vector<const FrameRecord*> clock_frames;
  for (const FrameRecord& f : hw.frames) {
    if (f.port == LinkPort::kClock && !f.truncated &&
        (f.flags & obs::kFrameFlagInjected) == 0) {
      clock_frames.push_back(&f);
    }
  }
  std::sort(clock_frames.begin(), clock_frames.end(),
            [](const FrameRecord* a, const FrameRecord* b) {
              return a->seq < b->seq;
            });

  for (const FrameRecord* f : clock_frames) {
    auto msg = decode(f->payload);
    if (!msg.ok()) continue;
    if (const auto* tick = std::get_if<ClockTick>(&msg.value())) {
      if (f->dir != LinkDir::kTx) continue;
      auto [it, fresh] = rounds.try_emplace(tick->sim_cycle);
      Round& r = it->second;
      if (fresh) {
        r.id = tick->round != 0 ? tick->round : ++next_round;
        next_round = std::max(next_round, r.id);
      }
      r.first_tx = std::min(r.first_tx, f->wall_ns);
      r.last_tx = std::max(r.last_tx, f->wall_ns);
      pending[f->node].push_back({tick->sim_cycle, f->wall_ns, r.id});
    } else if (std::holds_alternative<TimeAck>(msg.value())) {
      if (f->dir != LinkDir::kRx) continue;
      auto& fifo = pending[f->node];
      // The boot-handshake ack precedes any tick; nothing to join it with.
      if (fifo.empty()) continue;
      const PendingTick p = fifo.front();
      fifo.pop_front();
      spans.push_back({p.round, f->node, obs::SpanPhase::kNodeWait, p.wall_ns,
                       f->wall_ns, p.cycle});
      rounds[p.cycle].last_rx = std::max(rounds[p.cycle].last_rx, f->wall_ns);
    }
  }

  for (const auto& [cycle, r] : rounds) {
    if (r.first_tx == ~u64{0}) continue;
    const u64 end = std::max(r.last_tx, r.last_rx);
    spans.push_back(
        {r.id, 0, obs::SpanPhase::kScatter, r.first_tx, r.last_tx, cycle});
    if (r.last_rx != 0) {
      spans.push_back(
          {r.id, 0, obs::SpanPhase::kGather, r.last_tx, r.last_rx, cycle});
    }
    spans.push_back(
        {r.id, 0, obs::SpanPhase::kBarrier, r.first_tx, end, cycle});
  }

  // Board sides: tick receive -> ack send is the compute phase; ack send ->
  // next tick receive is frozen. Board frames carry their fabric node id
  // (net::record_link stamps both sides), 0 on a two-party link.
  for (const obs::Recording& board : boards) {
    struct BoardState {
      std::optional<PendingTick> tick;  // rx tick awaiting its ack
      u64 prev_ack_ns = 0;              // last ack tx, opens the frozen span
      u64 prev_round = 0;
      // The boot-handshake ack opens a wall-clock gap to the first tick,
      // but it belongs to no round: emitting it would fabricate a phantom
      // round 0. Frozen spans start only after the first granted round.
      bool round_known = false;
    };
    std::map<u32, BoardState> per_node;
    std::vector<const FrameRecord*> frames;
    for (const FrameRecord& f : board.frames) {
      if (f.port == LinkPort::kClock && !f.truncated &&
          (f.flags & obs::kFrameFlagInjected) == 0) {
        frames.push_back(&f);
      }
    }
    std::sort(frames.begin(), frames.end(),
              [](const FrameRecord* a, const FrameRecord* b) {
                return a->seq < b->seq;
              });
    for (const FrameRecord* f : frames) {
      auto msg = decode(f->payload);
      if (!msg.ok()) continue;
      if (const auto* tick = std::get_if<ClockTick>(&msg.value())) {
        if (f->dir != LinkDir::kRx) continue;
        BoardState& st = per_node[f->node];
        u64 round = tick->round;
        if (auto it = rounds.find(tick->sim_cycle);
            round == 0 && it != rounds.end()) {
          round = it->second.id;
        }
        if (st.prev_ack_ns != 0 && st.round_known) {
          spans.push_back({st.prev_round, f->node, obs::SpanPhase::kFrozen,
                           st.prev_ack_ns, f->wall_ns, tick->sim_cycle});
        }
        st.tick = PendingTick{tick->sim_cycle, f->wall_ns, round};
      } else if (std::holds_alternative<TimeAck>(msg.value())) {
        if (f->dir != LinkDir::kTx) continue;
        BoardState& st = per_node[f->node];
        if (st.tick.has_value()) {
          spans.push_back({st.tick->round, f->node, obs::SpanPhase::kCompute,
                           st.tick->wall_ns, f->wall_ns, st.tick->cycle});
          st.prev_round = st.tick->round;
          st.round_known = true;
          st.tick.reset();
        }
        st.prev_ack_ns = f->wall_ns;
      }
    }
  }

  std::sort(spans.begin(), spans.end(),
            [](const obs::SpanRecord& a, const obs::SpanRecord& b) {
              return a.start_ns < b.start_ns;
            });
  return spans;
}

// ---------------------------------------------------------------------------

struct ReplaySession::State {
  mutable std::mutex mu;
  std::vector<FrameRecord> records;  // global sequence order
  std::vector<bool> consumed;
  // First index holding an unconsumed tx record: every rx record below it
  // has its causality gate satisfied.
  std::size_t barrier = 0;
  // Per-(port,dir) scan hints so the FIFO lookups stay O(1) amortized.
  std::size_t hint[3][2] = {};
  obs::FrameDiffFn diff = nullptr;
  std::function<u64()> time_source;
  bool gate_on_board_tick = false;  // recording side picks the stamp field
  std::optional<obs::Divergence> divergence;
  u64 n_consumed = 0;
  bool closed = false;

  void advance_barrier() {
    while (barrier < records.size() &&
           (records[barrier].dir == LinkDir::kRx || consumed[barrier])) {
      ++barrier;
    }
  }

  /// First unconsumed record on (port, dir), or records.size().
  std::size_t next_index(LinkPort port, LinkDir dir) {
    std::size_t& h = hint[static_cast<std::size_t>(port)]
                         [static_cast<std::size_t>(dir)];
    while (h < records.size() &&
           (consumed[h] || records[h].port != port || records[h].dir != dir)) {
      ++h;
    }
    return h;
  }

  void consume(std::size_t index) {
    consumed[index] = true;
    ++n_consumed;
    advance_barrier();
  }

  Status diverged_status() const {
    return Status{StatusCode::kFailedPrecondition,
                  "replay diverged: " + divergence->to_string()};
  }

  // Called with mu held. Compares the live side's send against the recorded
  // tx stream; latches the first mismatch.
  Status check_tx(LinkPort port, std::span<const u8> frame) {
    if (divergence.has_value()) return diverged_status();
    const std::size_t index = next_index(port, LinkDir::kTx);
    if (index >= records.size()) {
      divergence = obs::Divergence{
          .seq = records.empty() ? 0 : records.back().seq,
          .port = port,
          .dir = LinkDir::kTx,
          .reason = strformat("live side sent an extra frame on {} tx "
                              "beyond the recording",
                              obs::to_string(port))};
      return diverged_status();
    }
    const FrameRecord& expected = records[index];
    FrameRecord live;
    live.port = port;
    live.dir = LinkDir::kTx;
    live.msg_type = frame.empty() ? 0 : frame[0];
    live.payload_size = static_cast<u32>(frame.size());
    live.digest = crc32(frame);
    live.payload.assign(frame.begin(), frame.end());
    if (expected.truncated && live.payload.size() > expected.payload.size()) {
      live.payload.resize(expected.payload.size());
      live.truncated = true;
    }
    std::string reason = obs::compare_frames(expected, live, diff);
    if (!reason.empty()) {
      divergence = obs::Divergence{.seq = expected.seq,
                                   .port = port,
                                   .dir = LinkDir::kTx,
                                   .hw_cycle = expected.hw_cycle,
                                   .board_tick = expected.board_tick,
                                   .reason = std::move(reason)};
      return diverged_status();
    }
    consume(index);
    return Status::Ok();
  }

  enum class Rx { kDelivered, kPending, kExhausted, kDiverged, kClosed };

  // Called with mu held. Tries to deliver the next recorded rx frame for
  // `port`, honoring the causality and virtual-time gates.
  Rx try_deliver(LinkPort port, Bytes& out) {
    if (divergence.has_value()) return Rx::kDiverged;
    if (closed) return Rx::kClosed;
    const std::size_t index = next_index(port, LinkDir::kRx);
    if (index >= records.size()) return Rx::kExhausted;
    if (index > barrier) return Rx::kPending;  // earlier tx not re-sent yet
    const FrameRecord& record = records[index];
    if (time_source) {
      const u64 stamp = gate_on_board_tick ? record.board_tick
                                           : record.hw_cycle;
      if (time_source() < stamp) return Rx::kPending;
    }
    out = record.payload;
    consume(index);
    return Rx::kDelivered;
  }
};

namespace {

class ReplayChannel final : public Channel {
 public:
  ReplayChannel(std::shared_ptr<ReplaySession::State> state, LinkPort port)
      : state_(std::move(state)), port_(port) {}

  Status send(std::span<const u8> frame) override {
    std::scoped_lock lock(state_->mu);
    return state_->check_tx(port_, frame);
  }

  // No fd: a waiter polls this every 50 us, since the gates open as the
  // live side makes progress on its own thread.
  Result<std::optional<Bytes>> try_recv() override {
    std::scoped_lock lock(state_->mu);
    Bytes out;
    switch (state_->try_deliver(port_, out)) {
      case ReplaySession::State::Rx::kDelivered:
        return std::optional<Bytes>{std::move(out)};
      case ReplaySession::State::Rx::kDiverged:
        return state_->diverged_status();
      case ReplaySession::State::Rx::kClosed:
        return Status{StatusCode::kAborted, "replay link closed"};
      case ReplaySession::State::Rx::kExhausted:
        // Past the end of the recording there is nothing left to wait for;
        // before that, a later tx may still be owed on another port.
        if (state_->n_consumed == state_->records.size()) {
          return Status{StatusCode::kAborted,
                        strformat("replay: no further {} rx frames recorded",
                                  obs::to_string(port_))};
        }
        return std::optional<Bytes>{};
      default:
        return std::optional<Bytes>{};  // gated: not deliverable yet
    }
  }

  void close() override {
    std::scoped_lock lock(state_->mu);
    state_->closed = true;
  }

 private:
  std::shared_ptr<ReplaySession::State> state_;
  LinkPort port_;
};

}  // namespace

ReplaySession::ReplaySession() : state_(std::make_shared<State>()) {}
ReplaySession::~ReplaySession() = default;

Result<std::unique_ptr<ReplaySession>> ReplaySession::open(
    obs::Recording recording, ReplayOptions options) {
  // A fabric recording carries every node's link in one sequence; replay
  // impersonates one peer, so keep only the requested node's frames.
  std::erase_if(recording.frames, [&](const FrameRecord& r) {
    return r.node != options.node;
  });
  if (options.node != 0 && recording.frames.empty()) {
    return Status{StatusCode::kNotFound,
                  strformat("recording holds no frames for node {}",
                            options.node)};
  }
  for (const FrameRecord& r : recording.frames) {
    if (r.dir == LinkDir::kRx && r.truncated) {
      return Status{
          StatusCode::kInvalidArgument,
          strformat("recording not replayable: rx frame seq {} on {} is "
                    "truncated ({} of {} bytes stored); re-record with a "
                    "larger max_payload_bytes",
                    r.seq, obs::to_string(r.port), r.payload.size(),
                    r.payload_size)};
    }
  }
  auto session = std::unique_ptr<ReplaySession>(new ReplaySession());
  State& state = *session->state_;
  state.records = std::move(recording.frames);
  std::sort(state.records.begin(), state.records.end(),
            [](const FrameRecord& a, const FrameRecord& b) {
              return a.seq < b.seq;
            });
  state.consumed.assign(state.records.size(), false);
  state.diff = options.diff;
  state.time_source = std::move(options.time_source);
  state.gate_on_board_tick = recording.meta.side == "board";
  state.advance_barrier();
  return session;
}

CosimLink ReplaySession::make_link() {
  CosimLink link;
  link.data = std::make_unique<ReplayChannel>(state_, LinkPort::kData);
  link.intr = std::make_unique<ReplayChannel>(state_, LinkPort::kInt);
  link.clock = std::make_unique<ReplayChannel>(state_, LinkPort::kClock);
  return link;
}

void ReplaySession::set_time_source(std::function<u64()> source) {
  std::scoped_lock lock(state_->mu);
  state_->time_source = std::move(source);
}

std::optional<obs::Divergence> ReplaySession::divergence() const {
  std::scoped_lock lock(state_->mu);
  return state_->divergence;
}

u64 ReplaySession::consumed() const {
  std::scoped_lock lock(state_->mu);
  return state_->n_consumed;
}

u64 ReplaySession::total() const {
  std::scoped_lock lock(state_->mu);
  return state_->records.size();
}

bool ReplaySession::complete() const {
  std::scoped_lock lock(state_->mu);
  return state_->n_consumed == state_->records.size();
}

}  // namespace vhp::net
