// Property fuzz for the TCP framing layer (tests/prop.h harness; runs in
// the regular suite and under the ASan CI leg, nightly at PROP_ITERS=2000):
// random message batches are framed into one stream, then the stream is
// mangled the way a hostile or flaky network would — arbitrary recv()
// splits, truncation, bit flips — and fed through FrameDecoder +
// decode_message. The decoder must reproduce exactly the surviving frames,
// flag truncation, and never crash or leak on any input (ASan enforces the
// last part).

#include <gtest/gtest.h>

#include <unistd.h>

#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "net/event_engine.h"
#include "net/frame.h"
#include "net/socket.h"
#include "prop.h"
#include "wire/codec.h"
#include "wire/messages.h"

namespace ugc {
namespace {

using net::FrameDecoder;
using net::FrameError;
using proptest::Failure;
using proptest::Property;
using proptest::prop_check;

Bytes gen_payload(Rng& rng) {
  // Real traffic (encoded messages) plus raw junk: framing must not care.
  if (rng.bernoulli(0.5)) {
    SampleChallenge m{TaskId{rng.uniform(1 << 16)}, {}};
    const std::uint64_t count = rng.uniform(8);
    for (std::uint64_t i = 0; i < count; ++i) {
      m.samples.push_back(LeafIndex{rng.uniform(1 << 20)});
    }
    return encode_message(Message{m});
  }
  Bytes junk(rng.uniform(64), 0);
  for (auto& byte : junk) {
    byte = static_cast<std::uint8_t>(rng.uniform(256));
  }
  return junk;
}

struct StreamCase {
  std::vector<Bytes> payloads;
  Bytes stream;           // payloads framed back to back
  std::uint64_t seed = 0; // drives splits/mutations inside the property
};

Property<StreamCase> stream_property(const std::string& name) {
  Property<StreamCase> prop;
  prop.name = name;
  prop.gen = [](Rng& rng) {
    StreamCase c;
    const std::uint64_t count = rng.uniform(6);
    for (std::uint64_t i = 0; i < count; ++i) {
      c.payloads.push_back(gen_payload(rng));
      net::append_frame(c.payloads.back(), c.stream);
    }
    c.seed = rng.next();
    return c;
  };
  prop.show = [](const StreamCase& c) {
    return concat(c.payloads.size(), " frames, ", c.stream.size(),
                  " stream bytes, seed=0x", std::hex, c.seed);
  };
  prop.shrink = [](const StreamCase& c) {
    std::vector<StreamCase> smaller;
    if (!c.payloads.empty()) {
      StreamCase s;
      s.payloads.assign(c.payloads.begin(), c.payloads.end() - 1);
      for (const Bytes& payload : s.payloads) {
        net::append_frame(payload, s.stream);
      }
      s.seed = c.seed;
      smaller.push_back(std::move(s));
    }
    return smaller;
  };
  return prop;
}

// Feeds `stream` to a decoder in random chunks, collecting frames.
std::vector<Bytes> decode_stream(const Bytes& stream, Rng& rng,
                                 FrameDecoder& decoder) {
  std::vector<Bytes> frames;
  std::size_t cursor = 0;
  while (cursor < stream.size()) {
    const std::size_t chunk =
        1 + rng.uniform(std::min<std::size_t>(stream.size() - cursor, 17));
    decoder.feed(BytesView(stream).subspan(cursor, chunk));
    cursor += chunk;
    while (const auto frame = decoder.next()) {
      frames.emplace_back(frame->begin(), frame->end());
    }
  }
  return frames;
}

TEST(prop_net_frame, AnySplitReassemblesExactly) {
  prop_check(
      stream_property("framing is split-invariant"),
      [](const StreamCase& c) -> Failure {
        Rng rng(c.seed);
        FrameDecoder decoder;
        const std::vector<Bytes> frames = decode_stream(c.stream, rng, decoder);
        if (frames.size() != c.payloads.size()) {
          return concat("decoded ", frames.size(), " frames, expected ",
                        c.payloads.size());
        }
        for (std::size_t i = 0; i < frames.size(); ++i) {
          if (frames[i] != c.payloads[i]) {
            return concat("frame ", i, " mismatch");
          }
        }
        if (decoder.bytes_pending() != 0) {
          return concat(decoder.bytes_pending(),
                        " bytes pending after a complete stream");
        }
        return {};
      });
}

TEST(prop_net_frame, TruncationIsAlwaysDetected) {
  prop_check(
      stream_property("a truncated stream leaves pending bytes or fewer frames"),
      [](const StreamCase& c) -> Failure {
        if (c.stream.empty()) {
          return {};
        }
        Rng rng(c.seed);
        const std::size_t cut = rng.uniform(c.stream.size());
        const Bytes truncated(c.stream.begin(),
                              c.stream.begin() + static_cast<std::ptrdiff_t>(cut));
        FrameDecoder decoder;
        const std::vector<Bytes> frames =
            decode_stream(truncated, rng, decoder);
        // Whatever did come through must be a prefix of the original
        // frames, and the loss must be visible: fewer frames, or a
        // non-empty tail still pending.
        if (frames.size() > c.payloads.size()) {
          return concat("decoded ", frames.size(), " frames from a prefix");
        }
        for (std::size_t i = 0; i < frames.size(); ++i) {
          if (frames[i] != c.payloads[i]) {
            return concat("truncated frame ", i, " mismatch");
          }
        }
        // Exact byte accounting: every truncated-stream byte is either part
        // of a delivered frame or still pending — nothing is silently
        // swallowed.
        std::size_t delivered = 0;
        for (const Bytes& frame : frames) {
          delivered += net::kFrameHeaderSize + frame.size();
        }
        if (delivered + decoder.bytes_pending() != cut) {
          return concat("byte accounting: delivered ", delivered,
                        " + pending ", decoder.bytes_pending(), " != cut ",
                        cut);
        }
        return {};
      });
}

TEST(prop_net_frame, BitFlipsNeverCrashTheNetDecodePath) {
  prop_check(
      stream_property("mangled streams reject cleanly end to end"),
      [](const StreamCase& c) -> Failure {
        if (c.stream.empty()) {
          return {};
        }
        Rng rng(c.seed);
        Bytes mangled = c.stream;
        const std::uint64_t flips = 1 + rng.uniform(8);
        for (std::uint64_t i = 0; i < flips; ++i) {
          const std::uint64_t bit = rng.uniform(mangled.size() * 8);
          mangled[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        }
        // The exact pipeline a TcpTransport peer runs: chunked feed, frame
        // out, decode_message each frame. Flipped length fields may poison
        // the stream (FrameError — connection dropped) and flipped payloads
        // may fail decoding (WireError — frame dropped); anything else must
        // decode to *some* message. No other escape is acceptable.
        FrameDecoder decoder;
        std::size_t cursor = 0;
        try {
          while (cursor < mangled.size()) {
            const std::size_t chunk =
                1 + rng.uniform(std::min<std::size_t>(mangled.size() - cursor,
                                                      17));
            decoder.feed(BytesView(mangled).subspan(cursor, chunk));
            cursor += chunk;
            while (const auto frame = decoder.next()) {
              try {
                (void)decode_message(*frame);
              } catch (const WireError&) {
                // one frame lost; the stream lives on
              }
            }
          }
        } catch (const FrameError&) {
          return {};  // stream poisoned: the transport drops the peer
        }
        return {};
      });
}

// The same split-invariance property, run through a real kernel pipe
// serviced by each event-engine backend: random chunks go in the write
// end, a readiness-driven loop pulls whatever the engine reports readable
// and feeds the decoder. This is the exact byte path a TcpTransport loop
// runs, so both backends must reassemble every stream identically.
TEST(prop_net_frame, AnySplitReassemblesThroughEitherEngineBackend) {
  std::vector<net::EngineBackend> backends{net::EngineBackend::kPoll};
  if (net::epoll_supported()) {
    backends.push_back(net::EngineBackend::kEpoll);
  }
  for (const net::EngineBackend backend : backends) {
    prop_check(
        stream_property(concat("engine-driven reassembly (",
                               net::to_string(backend), ")")),
        [backend](const StreamCase& c) -> Failure {
          const auto engine = net::make_event_engine(backend);
          int fds[2];
          if (::pipe(fds) != 0) {
            return Failure("pipe failed");
          }
          const net::Socket read_end(fds[0]);
          const net::Socket write_end(fds[1]);
          engine->add(read_end.fd(), 1, net::Interest::kRead);

          Rng rng(c.seed);
          FrameDecoder decoder;
          std::vector<Bytes> frames;
          Bytes scratch(4096);
          std::vector<net::ReadyEvent> ready;
          std::size_t cursor = 0;
          for (;;) {
            if (cursor < c.stream.size()) {
              const std::size_t chunk =
                  1 + rng.uniform(
                          std::min<std::size_t>(c.stream.size() - cursor, 17));
              const ssize_t wrote = ::write(
                  write_end.fd(), c.stream.data() + cursor, chunk);
              if (wrote > 0) {
                cursor += static_cast<std::size_t>(wrote);
              }
            }
            engine->wait(0, ready);
            for (const net::ReadyEvent& event : ready) {
              if (!event.readable && !event.error) {
                continue;
              }
              // A pipe, not a socket: plain read(), not read_some()/recv().
              const ssize_t got =
                  ::read(read_end.fd(), scratch.data(), scratch.size());
              if (got <= 0) {
                continue;
              }
              decoder.feed(
                  BytesView(scratch.data(), static_cast<std::size_t>(got)));
              while (const auto frame = decoder.next()) {
                frames.emplace_back(frame->begin(), frame->end());
              }
            }
            if (cursor >= c.stream.size() && ready.empty()) {
              break;  // everything written and the pipe has gone quiet
            }
          }
          if (frames.size() != c.payloads.size()) {
            return concat(net::to_string(backend), ": decoded ",
                          frames.size(), " frames, expected ",
                          c.payloads.size());
          }
          for (std::size_t i = 0; i < frames.size(); ++i) {
            if (frames[i] != c.payloads[i]) {
              return concat(net::to_string(backend), ": frame ", i,
                            " mismatch");
            }
          }
          if (decoder.bytes_pending() != 0) {
            return concat(net::to_string(backend), ": ",
                          decoder.bytes_pending(),
                          " bytes pending after a complete stream");
          }
          return {};
        });
  }
}

}  // namespace
}  // namespace ugc
