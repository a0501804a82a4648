// Partial-writev resumption, property-tested over real sockets: the
// transport's write side batches whole frames into vectored writes, and the
// chaos engine's clamp_write trims those batches to arbitrary short writes
// — down to one byte per syscall. Across seeded multi-frame bursts the
// receiving end must observe the exact byte stream the sender framed, in
// order, regardless of where the kernel (or the clamp) split it; and the
// write_queue_hwm / frames_shed accounting must match what the enqueue
// sequence deterministically implies. Runs under whatever engine backend
// UGC_NET_ENGINE pins, so the CTest rerun covers poll as well as epoll.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/stopwatch.h"
#include "grid/chaos.h"
#include "net/frame.h"
#include "net/socket.h"
#include "net/tcp_transport.h"
#include "prop.h"
#include "wire/codec.h"

namespace ugc {
namespace {

using proptest::Failure;
using proptest::Property;
using proptest::prop_check;

proptest::Config writev_config() {
  proptest::Config config;
  config.iterations = static_cast<int>(proptest::env_u64("PROP_ITERS", 60));
  return config;
}

net::EngineBackend engine_from_env() {
  if (const char* engine = std::getenv("UGC_NET_ENGINE")) {
    return net::parse_engine_backend(engine);
  }
  return net::EngineBackend::kAuto;
}

struct WritevCase {
  std::uint64_t seed = 1;
  std::size_t cap = 0;              // chaos partial_write_cap (0 = off)
  std::size_t shed_watermark = 0;   // transport shed threshold (0 = off)
  std::vector<std::size_t> sizes;   // per-frame payload string lengths
};

std::string show_case(const WritevCase& c) {
  std::size_t total = 0;
  for (const std::size_t size : c.sizes) {
    total += size;
  }
  return concat("seed=", c.seed, " frames=", c.sizes.size(), " bytes~",
                total, " cap=", c.cap, " shed=", c.shed_watermark);
}

// The messages under test: Hellos whose agent strings carry seeded junk of
// the case's chosen lengths — arbitrary-size payloads with exact, locally
// reproducible encodings.
Message frame_message(Rng& rng, std::size_t size) {
  std::string agent(size, '\0');
  for (char& c : agent) {
    c = static_cast<char>('a' + rng.uniform(26));
  }
  return Message(Hello{kGridProtocol, std::move(agent)});
}

Failure run_writev_case(const WritevCase& c) {
  net::TcpTransportOptions options;
  options.quiescence_timeout_ms = 200;
  options.engine = engine_from_env();
  options.shed_watermark = c.shed_watermark;
  if (c.cap > 0) {
    ChaosPlan plan;
    plan.seed = c.seed;
    plan.partial_write_cap = c.cap;
    options.chaos = plan;  // short writes only: no delays, no disconnects
  }
  net::TcpTransport server(options);
  server.listen("127.0.0.1", 0);
  const std::uint16_t port = server.port();

  // Pre-compute the burst and everything it implies: the exact byte stream
  // the socket must carry, and the shed count the watermark forces. The
  // whole burst is enqueued between run() calls, so nothing flushes
  // mid-sequence and the accounting is deterministic.
  Rng rng(c.seed);
  std::vector<Message> burst;
  Bytes encoded;
  Bytes expected;
  std::size_t queued = 0;        // write_pending as enqueue_framed sees it
  std::size_t expect_kept = 0;
  std::size_t expect_shed = 0;
  for (const std::size_t size : c.sizes) {
    burst.push_back(frame_message(rng, size));
    encode_message_into(burst.back(), encoded);
    const std::size_t framed = encoded.size() + net::kFrameHeaderSize;
    if (c.shed_watermark > 0 && queued > c.shed_watermark) {
      ++expect_shed;
      continue;
    }
    net::append_frame(encoded, expected);
    queued += framed;
    ++expect_kept;
  }
  const std::size_t expect_total = expected.size();

  // The sink: a raw socket that says Hello, then drains and records every
  // byte — below the Message layer, so reordering or corruption inside a
  // resumed frame cannot hide behind a successful decode.
  std::atomic<bool> sink_done{false};
  Bytes received;
  std::string sink_error;
  std::thread sink([&] {
    try {
      net::Socket socket = net::tcp_connect("127.0.0.1", port);
      Bytes hello_payload;
      encode_message_into(Message(Hello{kGridProtocol, "sink"}),
                          hello_payload);
      Bytes hello_frame;
      net::append_frame(hello_payload, hello_frame);
      std::size_t sent = 0;
      while (sent < hello_frame.size()) {
        const net::IoResult wrote = net::write_some(
            socket, BytesView(hello_frame).subspan(sent));
        if (wrote.status == net::IoStatus::kOk) {
          sent += wrote.bytes;
        } else if (wrote.status != net::IoStatus::kWouldBlock) {
          throw net::SocketError("sink hello write failed");
        }
      }
      Bytes scratch(64 * 1024);
      Stopwatch watch;
      bool grace_pass = false;
      while (watch.elapsed_seconds() < 10.0) {
        const net::IoResult got =
            net::read_some(socket, std::span<std::uint8_t>(scratch));
        if (got.status == net::IoStatus::kOk) {
          received.insert(received.end(), scratch.begin(),
                          scratch.begin() + got.bytes);
          continue;
        }
        if (got.status == net::IoStatus::kWouldBlock) {
          if (received.size() >= expect_total) {
            if (grace_pass) {
              break;  // drained, plus one grace round for stray bytes
            }
            grace_pass = true;
            std::this_thread::sleep_for(std::chrono::milliseconds(30));
            continue;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          continue;
        }
        break;  // EOF or error: the server is done with us
      }
    } catch (const net::SocketError& error) {
      sink_error = error.what();
    }
    sink_done.store(true);
  });

  GridNodeId sink_id{};
  bool greeted = false;
  server.on_peer_hello = [&](GridNodeId peer, const Hello&) {
    sink_id = peer;
    greeted = true;
  };
  Stopwatch watch;
  server.run([&] { return greeted || watch.elapsed_seconds() > 5.0; });
  if (!greeted) {
    server.close_all();
    sink.join();
    return concat("sink never said hello: ", sink_error);
  }

  // Enqueue the whole burst between run() calls: every frame joins the
  // write queue before the first flush, so the high-water mark must equal
  // the kept bytes exactly, and the shed count is forced.
  for (const Message& message : burst) {
    server.send(sink_id, sink_id, message);
  }
  server.run([&] { return sink_done.load() || watch.elapsed_seconds() > 15.0; });
  const net::TcpIoStats io = server.io_stats();
  server.close_all();
  sink.join();

  if (!sink_error.empty()) {
    return concat("sink failed: ", sink_error);
  }
  if (received.size() != expect_total) {
    return concat("byte count mismatch: expected ", expect_total, ", got ",
                  received.size());
  }
  if (received != expected) {
    return Failure("stream differs from the framed bytes (ordering or "
                   "resumption corrupted a frame)");
  }
  if (io.write_queue_hwm != queued) {
    return concat("write_queue_hwm=", io.write_queue_hwm, ", expected ",
                  queued);
  }
  if (io.frames_shed != expect_shed) {
    return concat("frames_shed=", io.frames_shed, ", expected ", expect_shed);
  }
  if (io.frames_sent != expect_kept) {
    return concat("frames_sent=", io.frames_sent, ", expected ", expect_kept);
  }
  if (expect_kept > 0 && io.write_calls == 0) {
    return Failure("frames delivered but write_calls stayed zero");
  }
  // The batching headline: an un-clamped multi-frame burst must leave in
  // fewer syscalls than frames (the whole queue rides one vectored write).
  if (c.cap == 0 && c.shed_watermark == 0 && c.sizes.size() >= 4 &&
      io.frames_per_write_mean <= 1.0) {
    return concat("no coalescing: ", c.sizes.size(), " frames took ",
                  io.write_calls, " writes (mean ", io.frames_per_write_mean,
                  ")");
  }
  return {};
}

std::vector<WritevCase> shrink_case(const WritevCase& c) {
  std::vector<WritevCase> out;
  if (c.cap > 0) {
    WritevCase smaller = c;
    smaller.cap = 0;
    out.push_back(smaller);
  }
  if (c.shed_watermark > 0) {
    WritevCase smaller = c;
    smaller.shed_watermark = 0;
    out.push_back(smaller);
  }
  if (c.sizes.size() > 1) {
    WritevCase smaller = c;
    smaller.sizes.resize(c.sizes.size() / 2);
    out.push_back(smaller);
  }
  return out;
}

TEST(PropNetWritev, prop_clamped_vectored_writes_deliver_byte_exact_streams) {
  Property<WritevCase> prop;
  prop.name = "partial-writev resumption is byte-exact";
  prop.gen = [](Rng& rng) {
    WritevCase c;
    c.seed = rng.next();
    const std::size_t caps[] = {0, 0, 1, 7, 64, 512, 4096};
    c.cap = caps[rng.uniform(7)];
    // Tiny clamps write one syscall per clamped slice: keep those bursts
    // small so a case stays milliseconds, not seconds.
    const bool tiny = c.cap > 0 && c.cap < 64;
    const std::size_t frames = 1 + rng.uniform(tiny ? 10 : 40);
    for (std::size_t i = 0; i < frames; ++i) {
      c.sizes.push_back(rng.uniform(tiny ? 200 : 4000));
    }
    return c;
  };
  prop.shrink = shrink_case;
  prop.show = show_case;
  prop_check(prop, run_writev_case, writev_config());
}

TEST(PropNetWritev, prop_shed_accounting_is_exact_under_clamped_writes) {
  Property<WritevCase> prop;
  prop.name = "shed watermark drops exactly the predicted frames";
  prop.gen = [](Rng& rng) {
    WritevCase c;
    c.seed = rng.next();
    const std::size_t caps[] = {0, 64, 512};
    c.cap = caps[rng.uniform(3)];
    c.shed_watermark = 500 + rng.uniform(4500);
    const std::size_t frames = 2 + rng.uniform(30);
    for (std::size_t i = 0; i < frames; ++i) {
      c.sizes.push_back(rng.uniform(2000));
    }
    return c;
  };
  prop.shrink = shrink_case;
  prop.show = show_case;
  prop_check(prop, run_writev_case, writev_config());
}

}  // namespace
}  // namespace ugc
