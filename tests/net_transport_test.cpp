// In-process end-to-end coverage for the TCP transport: real loopback
// sockets, real poll loops, the unchanged SupervisorNode/ParticipantNode
// protocol — supervisor on the test thread, each worker on its own thread
// with its own TcpTransport (exactly the gridd/gridworker split, minus the
// processes). Runs under the ASan CI leg, which the process-level e2e
// script does not.

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "auth/handshake.h"
#include "auth/identity.h"
#include "core/cheating.h"
#include "grid/participant_node.h"
#include "grid/supervisor_node.h"
#include "net/socket.h"
#include "net/tcp_transport.h"

namespace ugc {
namespace {

net::TcpTransportOptions fast_options() {
  net::TcpTransportOptions options;
  // Everything is loopback: a tight quiescence timeout keeps the abort
  // paths reachable in test time without risking premature retries.
  options.quiescence_timeout_ms = 300;
  // The whole suite runs once per event-engine backend: the default run
  // exercises kAuto (epoll on Linux), and CTest re-runs it with
  // UGC_NET_ENGINE=poll (see CMakeLists) so every transport behavior here
  // is proven backend-independent.
  if (const char* engine = std::getenv("UGC_NET_ENGINE")) {
    options.engine = net::parse_engine_backend(engine);
  }
  return options;
}

struct WorkerResult {
  std::map<TaskId, Verdict> verdicts;
  std::uint64_t evaluations = 0;
};

// Runs one gridworker-shaped participant until the supervisor hangs up.
WorkerResult run_worker(std::uint16_t port, const std::string& agent,
                        std::shared_ptr<const HonestyPolicy> policy) {
  ParticipantNode::Options options;
  options.policy = std::move(policy);
  ParticipantNode node(options);

  net::TcpTransport transport(fast_options());
  const GridNodeId self = transport.add_local(node);
  const GridNodeId supervisor = transport.connect("127.0.0.1", port);
  transport.send(self, supervisor, Hello{kGridProtocol, agent});

  bool supervisor_gone = false;
  transport.on_peer_disconnected = [&](GridNodeId) {
    supervisor_gone = true;
  };
  transport.run([&] { return supervisor_gone; });
  return WorkerResult{node.verdicts(), node.honest_evaluations()};
}

TEST(TcpTransport, FullSchemeExchangeCatchesTheCheater) {
  for (const std::string scheme : {"cbs", "ni-cbs"}) {
    net::TcpTransport server(fast_options());
    server.listen("127.0.0.1", 0);
    const std::uint16_t port = server.port();

    std::vector<WorkerResult> results(3);
    std::vector<std::thread> workers;
    workers.emplace_back([&, port] {
      results[0] = run_worker(port, "honest-a", nullptr);
    });
    workers.emplace_back([&, port] {
      results[1] = run_worker(port, "honest-b", nullptr);
    });
    workers.emplace_back([&, port] {
      results[2] = run_worker(port, "cheater",
                              make_semi_honest_cheater({0.5, 0.0, 1234}));
    });

    std::vector<GridNodeId> slots;
    std::map<std::uint32_t, std::string> agents;
    server.on_peer_hello = [&](GridNodeId peer, const Hello& hello) {
      slots.push_back(peer);
      agents[peer.value] = hello.agent;
    };
    server.run([&] { return slots.size() == 3; });

    SupervisorNode::Plan plan;
    plan.domain = Domain(0, 3 * 512);
    plan.workload = "test";
    plan.scheme.name = scheme;
    plan.seed = 42;
    SupervisorNode supervisor(plan, slots);
    server.add_local(supervisor);
    supervisor.start(server);
    server.run([&] { return supervisor.done(); });

    std::map<std::string, Verdict> by_agent;
    for (const SupervisorNode::TaskOutcome& outcome : supervisor.outcomes()) {
      by_agent[agents.at(outcome.peer.value)] = outcome.verdict;
    }
    server.close_all();
    for (std::thread& worker : workers) {
      worker.join();
    }

    ASSERT_EQ(by_agent.size(), 3u) << scheme;
    EXPECT_TRUE(by_agent.at("honest-a").accepted()) << scheme;
    EXPECT_TRUE(by_agent.at("honest-b").accepted()) << scheme;
    EXPECT_FALSE(by_agent.at("cheater").accepted()) << scheme;
    EXPECT_NE(by_agent.at("cheater").status, VerdictStatus::kAborted)
        << scheme << ": a cheater must be *accused*, not timed out";

    // The workers saw the same verdicts the supervisor settled on, and the
    // honest ones did the full domain's work.
    for (const WorkerResult& result : results) {
      ASSERT_EQ(result.verdicts.size(), 1u) << scheme;
    }
    EXPECT_TRUE(results[0].verdicts.begin()->second.accepted()) << scheme;
    EXPECT_TRUE(results[1].verdicts.begin()->second.accepted()) << scheme;
    EXPECT_FALSE(results[2].verdicts.begin()->second.accepted()) << scheme;
    EXPECT_GE(results[0].evaluations, 512u) << scheme;

    // Byte metering ran on both sides of every link.
    EXPECT_GT(server.stats().total_bytes, 0u) << scheme;
  }
}

TEST(TcpTransport, ProtocolMismatchDropsThePeer) {
  net::TcpTransport server(fast_options());
  server.listen("127.0.0.1", 0);
  const std::uint16_t port = server.port();

  bool dropped = false;
  bool greeted = false;
  server.on_peer_hello = [&](GridNodeId, const Hello&) { greeted = true; };
  server.on_peer_disconnected = [&](GridNodeId) { dropped = true; };

  std::thread client([port] {
    net::TcpTransport transport(fast_options());
    struct : GridNode {
      void on_message(GridNodeId, const Message&, Transport&) override {}
    } sink;
    const GridNodeId self = transport.add_local(sink);
    const GridNodeId server_id = transport.connect("127.0.0.1", port);
    transport.send(self, server_id, Hello{999, "from-the-future"});
    bool gone = false;
    transport.on_peer_disconnected = [&](GridNodeId) { gone = true; };
    transport.run([&] { return gone; });
  });

  server.run([&] { return dropped; });
  server.close_all();
  client.join();
  EXPECT_TRUE(dropped);
  EXPECT_FALSE(greeted);
}

TEST(TcpTransport, ProtocolTrafficBeforeHelloDropsThePeer) {
  net::TcpTransport server(fast_options());
  server.listen("127.0.0.1", 0);
  const std::uint16_t port = server.port();

  bool dropped = false;
  server.on_peer_disconnected = [&](GridNodeId) { dropped = true; };

  std::thread client([port] {
    net::TcpTransport transport(fast_options());
    struct : GridNode {
      void on_message(GridNodeId, const Message&, Transport&) override {}
    } sink;
    const GridNodeId self = transport.add_local(sink);
    const GridNodeId server_id = transport.connect("127.0.0.1", port);
    // No Hello: straight to (what claims to be) protocol traffic.
    transport.send(self, server_id, Commitment{TaskId{1}, 4, Bytes(32, 1)});
    bool gone = false;
    transport.on_peer_disconnected = [&](GridNodeId) { gone = true; };
    transport.run([&] { return gone; });
  });

  server.run([&] { return dropped; });
  server.close_all();
  client.join();
  EXPECT_TRUE(dropped);
}

TEST(TcpTransport, HostileFrameLengthDropsThePeerNotTheServer) {
  net::TcpTransport server(fast_options());
  server.listen("127.0.0.1", 0);
  const std::uint16_t port = server.port();

  bool dropped = false;
  server.on_peer_disconnected = [&](GridNodeId) { dropped = true; };

  // A raw socket speaking garbage: a 0xffffffff length announcement.
  net::Socket raw = net::tcp_connect("127.0.0.1", port);
  const Bytes hostile{0xff, 0xff, 0xff, 0xff, 0x00};
  (void)net::write_some(raw, hostile);

  server.run([&] { return dropped; });
  EXPECT_TRUE(dropped);
  EXPECT_TRUE(server.connected_peers().empty());

  // The server must still accept and serve a well-behaved peer afterwards.
  bool greeted = false;
  server.on_peer_hello = [&](GridNodeId, const Hello&) { greeted = true; };
  std::thread client([port] {
    net::TcpTransport transport(fast_options());
    struct : GridNode {
      void on_message(GridNodeId, const Message&, Transport&) override {}
    } sink;
    const GridNodeId self = transport.add_local(sink);
    const GridNodeId server_id = transport.connect("127.0.0.1", port);
    transport.send(self, server_id, Hello{kGridProtocol, "fine"});
    bool gone = false;
    transport.on_peer_disconnected = [&](GridNodeId) { gone = true; };
    transport.run([&] { return gone; });
  });
  server.run([&] { return greeted; });
  server.close_all();
  client.join();
  EXPECT_TRUE(greeted);
}

TEST(TcpTransport, RepeatedHelloRegistersOnlyOnce) {
  // One connection is one worker slot: a cheater replaying Hello must not
  // fill a gridd's registration quota from a single connection.
  net::TcpTransport server(fast_options());
  server.listen("127.0.0.1", 0);
  const std::uint16_t port = server.port();

  std::size_t hellos = 0;
  bool dropped = false;
  server.on_peer_hello = [&](GridNodeId, const Hello&) { ++hellos; };
  server.on_peer_disconnected = [&](GridNodeId) { dropped = true; };

  net::Socket raw = net::tcp_connect("127.0.0.1", port);
  Bytes stream;
  for (int i = 0; i < 3; ++i) {
    net::append_frame(encode_message(Message{Hello{kGridProtocol, "dup"}}),
                      stream);
  }
  (void)net::write_some(raw, stream);
  raw.close();
  server.run([&] { return dropped; });
  server.close_all();
  EXPECT_EQ(hellos, 1u);
}

TEST(TcpTransport, UndecodableFramesAreCountedAndDropped) {
  net::TcpTransport server(fast_options());
  server.listen("127.0.0.1", 0);
  const std::uint16_t port = server.port();

  net::Socket raw = net::tcp_connect("127.0.0.1", port);
  // A well-formed *frame* whose payload is not a decodable message, then a
  // clean disconnect.
  Bytes stream;
  net::append_frame(to_bytes("not a wire message"), stream);
  (void)net::write_some(raw, stream);
  raw.close();

  bool dropped = false;
  server.on_peer_disconnected = [&](GridNodeId) { dropped = true; };
  server.run([&] { return dropped; });
  server.close_all();
  EXPECT_EQ(server.io_stats().frames_undecodable, 1u);
}

TEST(TcpTransport, MidFrameDisconnectCountsATruncatedStream) {
  net::TcpTransport server(fast_options());
  server.listen("127.0.0.1", 0);
  const std::uint16_t port = server.port();

  net::Socket raw = net::tcp_connect("127.0.0.1", port);
  // Announce 100 bytes, send 3, vanish.
  const Bytes partial{100, 0, 0, 0, 0xaa, 0xbb, 0xcc};
  (void)net::write_some(raw, partial);
  raw.close();

  bool dropped = false;
  server.on_peer_disconnected = [&](GridNodeId) { dropped = true; };
  server.run([&] { return dropped; });
  server.close_all();
  EXPECT_EQ(server.io_stats().streams_truncated, 1u);
}

TEST(TcpTransport, SendToAVanishedPeerIsAQuietNoOp) {
  net::TcpTransport server(fast_options());
  server.listen("127.0.0.1", 0);
  const std::uint16_t port = server.port();

  struct : GridNode {
    void on_message(GridNodeId, const Message&, Transport&) override {}
  } sink;
  const GridNodeId self = server.add_local(sink);

  GridNodeId peer{};
  bool greeted = false;
  server.on_peer_hello = [&](GridNodeId id, const Hello&) {
    peer = id;
    greeted = true;
  };
  {
    net::Socket raw = net::tcp_connect("127.0.0.1", port);
    Bytes stream;
    net::append_frame(encode_message(Message{Hello{kGridProtocol, "w"}}),
                      stream);
    (void)net::write_some(raw, stream);
    server.run([&] { return greeted; });
    // raw closes here: the peer vanishes.
  }
  bool dropped = false;
  server.on_peer_disconnected = [&](GridNodeId) { dropped = true; };
  server.run([&] { return dropped; });

  // Both sends must be loss, not crash: one to the reaped peer, one to a
  // never-seen id (the latter is a programming error and throws).
  server.send(self, peer, Verdict{TaskId{1}, VerdictStatus::kAborted,
                                  std::nullopt, "gone"});
  EXPECT_THROW(server.send(self, GridNodeId{12345},
                           Verdict{TaskId{1}, VerdictStatus::kAborted,
                                   std::nullopt, "never existed"}),
               Error);
  server.close_all();
}

// ------------------------------------------------- authenticated handshake

// Blocking helpers for raw-socket peers (the sockets are non-blocking).
Message read_message_blocking(net::Socket& socket) {
  net::FrameDecoder decoder;
  std::uint8_t buffer[4096];
  for (int spins = 0; spins < 2000; ++spins) {
    const net::IoResult result =
        net::read_some(socket, std::span<std::uint8_t>(buffer));
    if (result.status == net::IoStatus::kOk) {
      decoder.feed(BytesView(buffer, result.bytes));
      if (const auto frame = decoder.next()) {
        return decode_message(*frame);
      }
      continue;
    }
    if (result.status == net::IoStatus::kWouldBlock) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      continue;
    }
    throw Error("peer closed before a full frame arrived");
  }
  throw Error("timed out waiting for a frame");
}

void write_frame_blocking(net::Socket& socket, const Message& message) {
  Bytes stream;
  net::append_frame(encode_message(message), stream);
  std::size_t sent = 0;
  while (sent < stream.size()) {
    const net::IoResult result =
        net::write_some(socket, BytesView(stream).subspan(sent));
    if (result.status == net::IoStatus::kOk) {
      sent += result.bytes;
    } else if (result.status == net::IoStatus::kWouldBlock) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    } else {
      throw Error("peer closed mid-write");
    }
  }
}

void drain_until_closed(net::Socket& socket) {
  std::uint8_t buffer[4096];
  for (int spins = 0; spins < 2000; ++spins) {
    const net::IoResult result =
        net::read_some(socket, std::span<std::uint8_t>(buffer));
    if (result.status == net::IoStatus::kClosed ||
        result.status == net::IoStatus::kError) {
      return;
    }
    if (result.status == net::IoStatus::kWouldBlock) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
}

// Running out of descriptors in accept() (EMFILE) must not take the server
// down: the connections wait in the listen backlog, the transport counts
// the deferral and backs off, and every client registers once descriptors
// free up. Any client can force this by opening enough connections.
TEST(TcpTransport, OutOfDescriptorsDefersAcceptsInsteadOfThrowing) {
  constexpr std::size_t kClients = 8;
  net::TcpTransport server(fast_options());
  server.listen("127.0.0.1", 0);
  std::size_t hellos = 0;
  server.on_peer_hello = [&](GridNodeId, const Hello&) { ++hellos; };

  // The kernel completes each handshake into the backlog, where the
  // connection and its Hello wait for accept().
  std::vector<net::Socket> clients;
  for (std::size_t i = 0; i < kClients; ++i) {
    clients.push_back(net::tcp_connect("127.0.0.1", server.port()));
    write_frame_blocking(clients.back(),
                         Hello{kGridProtocol, concat("fd-", i)});
  }

  // Lower the soft limit a little above the lowest free descriptor, fill
  // every free slot below it, then free two: the server can accept two
  // clients and no more. The guard restores both on any exit.
  struct Limit {
    rlimit saved{};
    std::vector<int> fillers;
    ~Limit() {
      for (const int fd : fillers) {
        ::close(fd);
      }
      ::setrlimit(RLIMIT_NOFILE, &saved);
    }
  } limit;
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &limit.saved), 0);
  const int lowest_free = ::dup(0);
  ASSERT_GE(lowest_free, 0);
  ::close(lowest_free);
  rlimit lowered = limit.saved;
  lowered.rlim_cur = static_cast<rlim_t>(lowest_free) + 16;
  ASSERT_LE(lowered.rlim_cur, limit.saved.rlim_max);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);
  for (int fd = ::dup(0); fd >= 0; fd = ::dup(0)) {
    limit.fillers.push_back(fd);
  }
  ASSERT_GE(limit.fillers.size(), 2u);
  for (int i = 0; i < 2; ++i) {
    ::close(limit.fillers.back());
    limit.fillers.pop_back();
  }

  const auto deadline = [](int ms) {
    return std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  };
  const auto starved_until = deadline(2000);
  EXPECT_NO_THROW(server.run([&] {
    return (hellos == 2 && server.io_stats().accepts_deferred > 0) ||
           std::chrono::steady_clock::now() > starved_until;
  }));
  EXPECT_EQ(hellos, 2u);
  EXPECT_GT(server.io_stats().accepts_deferred, 0u);

  // Descriptors come back: the parked listener re-arms and the backlog
  // drains.
  for (const int fd : limit.fillers) {
    ::close(fd);
  }
  limit.fillers.clear();
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &limit.saved), 0);
  const auto recovered_until = deadline(5000);
  EXPECT_NO_THROW(server.run([&] {
    return hellos == kClients ||
           std::chrono::steady_clock::now() > recovered_until;
  }));
  EXPECT_EQ(hellos, kClients);
  server.close_all();
}

TEST(TcpTransportAuth, AuthenticatedExchangeEstablishesDurableIdentity) {
  net::TcpTransport server(fast_options());
  server.require_auth({});
  server.listen("127.0.0.1", 0);
  const std::uint16_t port = server.port();

  Rng rng(77);
  const auth::WorkerIdentity identity = auth::WorkerIdentity::generate(rng);

  WorkerResult result;
  std::thread worker([&, port] {
    ParticipantNode::Options options;
    ParticipantNode node(options);
    net::TcpTransport transport(fast_options());
    transport.use_identity(identity, "worker-auth");
    transport.add_local(node);
    transport.connect("127.0.0.1", port);
    bool gone = false;
    transport.on_peer_disconnected = [&](GridNodeId) { gone = true; };
    transport.run([&] { return gone; });
    result = WorkerResult{node.verdicts(), node.honest_evaluations()};
  });

  std::vector<GridNodeId> slots;
  std::optional<auth::AuthInfo> seen;
  std::optional<Hello> hello_seen;
  server.on_peer_authenticated = [&](GridNodeId peer,
                                     const auth::AuthInfo& info) {
    slots.push_back(peer);
    seen = info;
  };
  server.on_peer_hello = [&](GridNodeId, const Hello& hello) {
    hello_seen = hello;
  };
  server.run([&] { return slots.size() == 1; });

  ASSERT_TRUE(seen.has_value());
  EXPECT_EQ(seen->worker_id, identity.id());
  EXPECT_EQ(seen->agent, "worker-auth");
  // The synthesized Hello keeps hello-driven callers working unchanged.
  ASSERT_TRUE(hello_seen.has_value());
  EXPECT_EQ(hello_seen->agent, "worker-auth");
  ASSERT_TRUE(server.auth_of(slots[0]).has_value());
  EXPECT_EQ(server.auth_of(slots[0])->worker_id, identity.id());

  // The scheme runs unchanged on top of the authenticated connection.
  SupervisorNode::Plan plan;
  plan.domain = Domain(0, 512);
  plan.workload = "test";
  plan.scheme.name = "cbs";
  plan.seed = 5;
  SupervisorNode supervisor(plan, slots);
  server.add_local(supervisor);
  supervisor.start(server);
  server.run([&] { return supervisor.done(); });
  server.close_all();
  worker.join();

  ASSERT_EQ(result.verdicts.size(), 1u);
  EXPECT_TRUE(result.verdicts.begin()->second.accepted());
  EXPECT_EQ(server.io_stats().handshakes_refused, 0u);
}

TEST(TcpTransportAuth, ForgedProofIsRefused) {
  net::TcpTransport server(fast_options());
  server.require_auth({});
  server.listen("127.0.0.1", 0);
  const std::uint16_t port = server.port();

  Rng rng(78);
  const auth::WorkerIdentity identity = auth::WorkerIdentity::generate(rng);
  std::thread attacker([&, port] {
    net::Socket raw = net::tcp_connect("127.0.0.1", port);
    const auto challenge =
        std::get<HelloChallenge>(read_message_blocking(raw));
    HelloProof proof = auth::make_hello_proof(identity, challenge.nonce,
                                              kGridProtocol, "forger");
    proof.mac[0] ^= 1;
    write_frame_blocking(raw, Message{proof});
    drain_until_closed(raw);
  });

  std::optional<auth::HandshakeStatus> refused;
  bool dropped = false;
  server.on_auth_refused = [&](GridNodeId, auth::HandshakeStatus status,
                               const auth::AuthInfo&) { refused = status; };
  server.on_peer_disconnected = [&](GridNodeId) { dropped = true; };
  server.run([&] { return dropped; });
  server.close_all();
  attacker.join();

  EXPECT_EQ(refused, auth::HandshakeStatus::kBadMac);
  EXPECT_EQ(server.io_stats().handshakes_refused, 1u);
  EXPECT_TRUE(server.connected_peers().empty());
}

TEST(TcpTransportAuth, ReplayedStaleProofIsRefused) {
  net::TcpTransport server(fast_options());
  server.require_auth({});
  server.listen("127.0.0.1", 0);
  const std::uint16_t port = server.port();

  Rng rng(79);
  const auth::WorkerIdentity identity = auth::WorkerIdentity::generate(rng);
  std::thread attacker([&, port] {
    // First connection: a perfectly honest handshake, recorded.
    net::Socket first = net::tcp_connect("127.0.0.1", port);
    const auto challenge1 =
        std::get<HelloChallenge>(read_message_blocking(first));
    const HelloProof recorded = auth::make_hello_proof(
        identity, challenge1.nonce, kGridProtocol, "victim");
    write_frame_blocking(first, Message{recorded});

    // Second connection: replay the recorded proof against a fresh nonce.
    net::Socket second = net::tcp_connect("127.0.0.1", port);
    const auto challenge2 =
        std::get<HelloChallenge>(read_message_blocking(second));
    EXPECT_NE(challenge1.nonce, challenge2.nonce)
        << "nonces must be fresh per connection";
    write_frame_blocking(second, Message{recorded});
    drain_until_closed(second);
    first.close();
  });

  std::size_t authenticated = 0;
  std::optional<auth::HandshakeStatus> refused;
  server.on_peer_authenticated = [&](GridNodeId, const auth::AuthInfo&) {
    ++authenticated;
  };
  server.on_auth_refused = [&](GridNodeId, auth::HandshakeStatus status,
                               const auth::AuthInfo&) { refused = status; };
  server.run([&] { return refused.has_value(); });
  server.close_all();
  attacker.join();

  EXPECT_EQ(authenticated, 1u) << "the original handshake was genuine";
  EXPECT_EQ(refused, auth::HandshakeStatus::kBadMac)
      << "a stale proof must not bind a fresh nonce";
  EXPECT_EQ(server.io_stats().handshakes_refused, 1u);
}

TEST(TcpTransportAuth, BannedIdentityIsRefusedAtHello) {
  Rng rng(80);
  const auth::WorkerIdentity identity = auth::WorkerIdentity::generate(rng);

  net::TcpTransport server(fast_options());
  net::AuthOptions auth_options;
  auth_options.is_banned = [&](const auth::WorkerId& id) {
    return id == identity.id();
  };
  server.require_auth(std::move(auth_options));
  server.listen("127.0.0.1", 0);
  const std::uint16_t port = server.port();

  std::thread worker([&, port] {
    struct : GridNode {
      void on_message(GridNodeId, const Message&, Transport&) override {}
    } sink;
    net::TcpTransport transport(fast_options());
    transport.use_identity(identity, "banned-worker");
    transport.add_local(sink);
    transport.connect("127.0.0.1", port);
    bool gone = false;
    transport.on_peer_disconnected = [&](GridNodeId) { gone = true; };
    transport.run([&] { return gone; });
  });

  std::optional<auth::HandshakeStatus> refused;
  std::optional<auth::AuthInfo> info;
  server.on_auth_refused = [&](GridNodeId, auth::HandshakeStatus status,
                               const auth::AuthInfo& who) {
    refused = status;
    info = who;
  };
  server.run([&] { return refused.has_value(); });
  server.close_all();
  worker.join();

  EXPECT_EQ(refused, auth::HandshakeStatus::kBanned);
  // The proof verified, so the refusal names the banned identity.
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->worker_id, identity.id());
  EXPECT_EQ(info->agent, "banned-worker");
  EXPECT_EQ(server.io_stats().handshakes_refused, 1u);
}

TEST(TcpTransportAuth, PlainHelloIsRefusedWhenAuthIsRequired) {
  net::TcpTransport server(fast_options());
  server.require_auth({});
  server.listen("127.0.0.1", 0);
  const std::uint16_t port = server.port();

  net::Socket raw = net::tcp_connect("127.0.0.1", port);
  Bytes stream;
  net::append_frame(encode_message(Message{Hello{kGridProtocol, "legacy"}}),
                    stream);
  (void)net::write_some(raw, stream);

  std::optional<auth::HandshakeStatus> refused;
  bool greeted = false;
  server.on_peer_hello = [&](GridNodeId, const Hello&) { greeted = true; };
  server.on_auth_refused = [&](GridNodeId, auth::HandshakeStatus status,
                               const auth::AuthInfo&) { refused = status; };
  server.run([&] { return refused.has_value(); });
  server.close_all();

  EXPECT_EQ(refused, auth::HandshakeStatus::kUnauthenticated);
  EXPECT_FALSE(greeted);
  EXPECT_EQ(server.io_stats().handshakes_refused, 1u);
}

TEST(TcpTransportAuth, SchemeTrafficBeforeProofIsRefused) {
  net::TcpTransport server(fast_options());
  server.require_auth({});
  server.listen("127.0.0.1", 0);
  const std::uint16_t port = server.port();

  net::Socket raw = net::tcp_connect("127.0.0.1", port);
  Bytes stream;
  net::append_frame(
      encode_message(Message{Commitment{TaskId{1}, 4, Bytes(32, 1)}}),
      stream);
  (void)net::write_some(raw, stream);

  std::optional<auth::HandshakeStatus> refused;
  server.on_auth_refused = [&](GridNodeId, auth::HandshakeStatus status,
                               const auth::AuthInfo&) { refused = status; };
  server.run([&] { return refused.has_value(); });
  server.close_all();

  EXPECT_EQ(refused, auth::HandshakeStatus::kUnauthenticated);
  EXPECT_EQ(server.io_stats().handshakes_refused, 1u);
}

}  // namespace
}  // namespace ugc
