// Transport stress: many concurrent clients churning against one
// TcpTransport, with hostile connections interleaved. What must hold:
//
//   - frames from one peer never interleave with another's (per-client
//     sequence numbers echo back strictly in order),
//   - a peer disconnects exactly once (no double-reap under churn),
//   - hostile frame lengths, undecodable payloads and mid-frame
//     disconnects take down only their own connection and are counted,
//   - a burst of unsolicited sends, one per connected peer, all arrive.

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.h"
#include "net/socket.h"
#include "net/tcp_transport.h"
#include "wire/messages.h"

namespace ugc {
namespace {

net::TcpTransportOptions stress_options() {
  net::TcpTransportOptions options;
  options.quiescence_timeout_ms = 300;
  if (const char* engine = std::getenv("UGC_NET_ENGINE")) {
    options.engine = net::parse_engine_backend(engine);
  }
  return options;
}

// Echo node: bounces every message straight back, from inside the
// callback — the send path every protocol reply takes.
struct EchoNode : GridNode {
  void on_message(GridNodeId from, const Message& message,
                  Transport& transport) override {
    transport.send(id(), from, message);
  }
};

// One well-behaved client: blocking socket, Hello, then `rounds` sequenced
// challenges, each awaited before the next is sent. Returns the number of
// echoes that came back in strict sequence order.
std::size_t run_sequenced_client(std::uint16_t port, std::uint32_t client,
                                 std::size_t rounds) {
  net::Socket socket = net::tcp_connect("127.0.0.1", port);
  Bytes out;
  net::append_frame(encode_message(Message{Hello{kGridProtocol,
                                                 concat("client-", client)}}),
                    out);
  std::size_t cursor = 0;
  const auto flush = [&] {
    while (cursor < out.size()) {
      const net::IoResult result =
          net::write_some(socket, BytesView(out).subspan(cursor));
      if (result.status == net::IoStatus::kWouldBlock) {
        std::this_thread::yield();  // loopback: the kernel will take it
        continue;
      }
      if (result.status != net::IoStatus::kOk) {
        return false;
      }
      cursor += result.bytes;
    }
    out.clear();
    cursor = 0;
    return true;
  };
  if (!flush()) {
    return 0;
  }

  net::FrameDecoder decoder;
  Bytes scratch(4096);
  std::size_t in_order = 0;
  for (std::size_t round = 0; round < rounds; ++round) {
    // Tag the task id with (client, round): if the transport ever
    // interleaved two peers' streams, some client would see a wrong or
    // out-of-order tag.
    const TaskId tag{(static_cast<std::uint64_t>(client) << 20) | round};
    net::append_frame(encode_message(Message{SampleChallenge{tag, {}}}), out);
    if (!flush()) {
      return in_order;
    }
    bool answered = false;
    while (!answered) {
      const net::IoResult result =
          net::read_some(socket, std::span<std::uint8_t>(scratch));
      if (result.status == net::IoStatus::kWouldBlock) {
        std::this_thread::yield();
        continue;
      }
      if (result.status != net::IoStatus::kOk) {
        return in_order;
      }
      decoder.feed(BytesView(scratch.data(), result.bytes));
      while (const auto frame = decoder.next()) {
        const Message echoed = decode_message(*frame);
        const auto* challenge = std::get_if<SampleChallenge>(&echoed);
        if (challenge != nullptr && challenge->task.value == tag.value) {
          ++in_order;
          answered = true;
        } else {
          return in_order;  // wrong frame: streams were mixed up
        }
      }
    }
  }
  socket.close();
  return in_order;
}

TEST(TcpTransportStress, ChurnKeepsStreamsInOrderAndReapsOnce) {
  constexpr std::size_t kClients = 24;
  constexpr std::size_t kRounds = 16;
  constexpr std::size_t kFaulty = 6;  // interleaved hostile connections

  net::TcpTransport server(stress_options());
  struct : EchoNode {
  } echo;
  server.add_local(echo);
  server.listen("127.0.0.1", 0);
  const std::uint16_t port = server.port();

  std::size_t hellos = 0;
  std::map<std::uint32_t, int> disconnects;
  server.on_peer_hello = [&](GridNodeId, const Hello&) { ++hellos; };
  server.on_peer_disconnected = [&](GridNodeId peer) {
    ++disconnects[peer.value];
  };

  std::mutex results_mutex;
  std::vector<std::size_t> results;
  std::vector<std::thread> clients;
  clients.reserve(kClients + kFaulty);
  for (std::uint32_t i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      const std::size_t in_order = run_sequenced_client(port, i, kRounds);
      const std::lock_guard<std::mutex> lock(results_mutex);
      results.push_back(in_order);
    });
    // Interleave fault churn with honest traffic: each fault kind arrives
    // while other clients are mid-exchange.
    if (i < kFaulty) {
      clients.emplace_back([port, i] {
        net::Socket hostile = net::tcp_connect("127.0.0.1", port);
        if (i % 3 == 0) {
          // Hostile length announcement: poisons its own stream.
          const Bytes bomb{0xff, 0xff, 0xff, 0xff, 0x00};
          (void)net::write_some(hostile, bomb);
        } else if (i % 3 == 1) {
          // Valid frame, undecodable payload.
          Bytes stream;
          net::append_frame(to_bytes("stress junk"), stream);
          (void)net::write_some(hostile, stream);
        } else {
          // Mid-frame vanish: announce 64 bytes, deliver 2.
          const Bytes partial{64, 0, 0, 0, 0xaa, 0xbb};
          (void)net::write_some(hostile, partial);
        }
        hostile.close();
      });
    }
  }

  // The server runs until every honest client has finished its rounds and
  // every connection (honest + hostile) has been reaped.
  server.run([&] {
    std::size_t finished;
    {
      const std::lock_guard<std::mutex> lock(results_mutex);
      finished = results.size();
    }
    return finished == kClients &&
           disconnects.size() >= kClients + kFaulty &&
           server.connected_peers().empty();
  });
  for (std::thread& thread : clients) {
    thread.join();
  }
  const net::TcpIoStats io = server.io_stats();
  server.close_all();

  // Every honest client got every echo, in order.
  ASSERT_EQ(results.size(), kClients);
  for (const std::size_t in_order : results) {
    EXPECT_EQ(in_order, kRounds);
  }
  EXPECT_EQ(hellos, kClients);

  // Exactly one disconnect per connection — double-reap would double-count.
  EXPECT_EQ(disconnects.size(), kClients + kFaulty);
  for (const auto& [peer, count] : disconnects) {
    EXPECT_EQ(count, 1) << "peer " << peer << " reaped " << count
                        << " times";
  }

  // Each fault kind was charged to the right counter.
  EXPECT_EQ(io.frames_undecodable, kFaulty / 3u);
  EXPECT_GE(io.streams_truncated, kFaulty / 3u);
}

// Sends made between runs, one per connected peer, all reach their peers
// once the loop runs again.
TEST(TcpTransportStress, BroadcastReachesEveryPeer) {
  constexpr std::size_t kClients = 9;

  net::TcpTransport server(stress_options());
  struct : GridNode {
    void on_message(GridNodeId, const Message&, Transport&) override {}
  } sink;
  const GridNodeId self = server.add_local(sink);
  server.listen("127.0.0.1", 0);
  const std::uint16_t port = server.port();

  std::vector<GridNodeId> peers;
  server.on_peer_hello = [&](GridNodeId peer, const Hello&) {
    peers.push_back(peer);
  };

  std::vector<std::thread> clients;
  std::mutex got_mutex;
  std::size_t got = 0;
  for (std::uint32_t i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      net::Socket socket = net::tcp_connect("127.0.0.1", port);
      Bytes out;
      net::append_frame(
          encode_message(Message{Hello{kGridProtocol, concat("b-", i)}}),
          out);
      std::size_t cursor = 0;
      while (cursor < out.size()) {
        const net::IoResult result =
            net::write_some(socket, BytesView(out).subspan(cursor));
        if (result.status == net::IoStatus::kOk) {
          cursor += result.bytes;
        } else if (result.status != net::IoStatus::kWouldBlock) {
          return;
        }
      }
      net::FrameDecoder decoder;
      Bytes scratch(4096);
      for (;;) {
        const net::IoResult result =
            net::read_some(socket, std::span<std::uint8_t>(scratch));
        if (result.status == net::IoStatus::kWouldBlock) {
          std::this_thread::yield();
          continue;
        }
        if (result.status != net::IoStatus::kOk) {
          return;
        }
        decoder.feed(BytesView(scratch.data(), result.bytes));
        if (decoder.next()) {
          const std::lock_guard<std::mutex> lock(got_mutex);
          ++got;
          return;  // close: one broadcast frame is the whole test
        }
      }
    });
  }

  server.run([&] { return peers.size() == kClients; });
  for (const GridNodeId peer : peers) {
    server.send(self, peer, Message{SampleChallenge{TaskId{99}, {}}});
  }
  server.run([&] {
    const std::lock_guard<std::mutex> lock(got_mutex);
    return got == kClients;
  });
  server.close_all();
  for (std::thread& thread : clients) {
    thread.join();
  }
  EXPECT_EQ(got, kClients);
}

}  // namespace
}  // namespace ugc
