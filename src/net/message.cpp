#include "vhp/net/message.hpp"

#include <stdexcept>

#include "vhp/common/format.hpp"

namespace vhp::net {

std::string_view to_string(MsgType t) {
  switch (t) {
    case MsgType::kDataWrite: return "DATA_WRITE";
    case MsgType::kDataReadReq: return "DATA_READ_REQ";
    case MsgType::kDataReadResp: return "DATA_READ_RESP";
    case MsgType::kIntRaise: return "INT_RAISE";
    case MsgType::kClockTick: return "CLOCK_TICK";
    case MsgType::kTimeAck: return "TIME_ACK";
    case MsgType::kShutdown: return "SHUTDOWN";
  }
  return "UNKNOWN";
}

MsgType type_of(const Message& msg) {
  struct Visitor {
    MsgType operator()(const DataWrite&) const { return MsgType::kDataWrite; }
    MsgType operator()(const DataReadReq&) const { return MsgType::kDataReadReq; }
    MsgType operator()(const DataReadResp&) const { return MsgType::kDataReadResp; }
    MsgType operator()(const IntRaise&) const { return MsgType::kIntRaise; }
    MsgType operator()(const ClockTick&) const { return MsgType::kClockTick; }
    MsgType operator()(const TimeAck&) const { return MsgType::kTimeAck; }
    MsgType operator()(const Shutdown&) const { return MsgType::kShutdown; }
  };
  return std::visit(Visitor{}, msg);
}

Bytes encode(const Message& msg) {
  Bytes out;
  ByteWriter w{out};
  w.u8v(static_cast<u8>(type_of(msg)));
  struct Visitor {
    ByteWriter& w;
    void operator()(const DataWrite& m) const {
      w.u32v(m.address);
      w.sized_bytes(m.data);
    }
    void operator()(const DataReadReq& m) const {
      w.u32v(m.address);
      w.u32v(m.nbytes);
    }
    void operator()(const DataReadResp& m) const {
      w.u32v(m.address);
      w.sized_bytes(m.data);
    }
    void operator()(const IntRaise& m) const { w.u32v(m.vector); }
    void operator()(const ClockTick& m) const {
      w.u64v(m.sim_cycle);
      w.u32v(m.n_ticks);
      w.u64v(m.round);
    }
    void operator()(const TimeAck& m) const {
      if (m.lookahead == kNoLookahead) {
        throw std::invalid_argument(
            "TIME_ACK lookahead equals the kNoLookahead sentinel");
      }
      w.u64v(m.board_tick);
      w.u64v(m.lookahead.value_or(kNoLookahead));
      w.u64v(m.round);
      w.u64v(m.data_sent);
    }
    void operator()(const Shutdown&) const {}
  };
  std::visit(Visitor{w}, msg);
  return out;
}

Result<Message> decode(std::span<const u8> frame) {
  ByteReader r{frame};
  const auto type = static_cast<MsgType>(r.u8v());
  Message msg;
  switch (type) {
    case MsgType::kDataWrite: {
      DataWrite m;
      m.address = r.u32v();
      m.data = r.sized_bytes();
      msg = std::move(m);
      break;
    }
    case MsgType::kDataReadReq: {
      DataReadReq m;
      m.address = r.u32v();
      m.nbytes = r.u32v();
      msg = m;
      break;
    }
    case MsgType::kDataReadResp: {
      DataReadResp m;
      m.address = r.u32v();
      m.data = r.sized_bytes();
      msg = std::move(m);
      break;
    }
    case MsgType::kIntRaise: {
      IntRaise m;
      m.vector = r.u32v();
      msg = m;
      break;
    }
    case MsgType::kClockTick: {
      ClockTick m;
      m.sim_cycle = r.u64v();
      m.n_ticks = r.u32v();
      m.round = r.u64v();
      msg = m;
      break;
    }
    case MsgType::kTimeAck: {
      TimeAck m;
      m.board_tick = r.u64v();
      if (const u64 lookahead = r.u64v(); lookahead != kNoLookahead) {
        m.lookahead = lookahead;
      }
      m.round = r.u64v();
      m.data_sent = r.u64v();
      msg = m;
      break;
    }
    case MsgType::kShutdown:
      msg = Shutdown{};
      break;
    default:
      return Status{StatusCode::kInvalidArgument,
                    vhp::strformat("unknown message type {}",
                                static_cast<int>(type))};
  }
  if (!r.ok()) {
    return Status{StatusCode::kInvalidArgument,
                  vhp::strformat("truncated {} frame ({} bytes)",
                              to_string(type), frame.size())};
  }
  if (!r.at_end()) {
    return Status{StatusCode::kInvalidArgument,
                  vhp::strformat("trailing bytes after {} frame",
                              to_string(type))};
  }
  return msg;
}

}  // namespace vhp::net
