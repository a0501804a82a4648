// Backend-conformance tests for the readiness engine (src/net/event_engine).
// Every test runs against both backends — epoll (Linux) and the portable
// poll() fallback — through the same TEST_P body: they must be
// behaviorally interchangeable, because every higher layer assumes the
// platform's choice is invisible.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/event_engine.h"
#include "net/socket.h"

namespace ugc {
namespace {

using net::EngineBackend;
using net::EventEngine;
using net::Interest;
using net::ReadyEvent;

// A non-blocking pipe, {read end, write end}: the simplest fd whose
// readiness a test controls byte by byte.
std::pair<net::Socket, net::Socket> make_pipe() {
  int fds[2];
  if (::pipe(fds) != 0) {
    throw Error("pipe failed");
  }
  net::Socket read_end(fds[0]);
  net::Socket write_end(fds[1]);
  for (const int fd : fds) {
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  }
  return {std::move(read_end), std::move(write_end)};
}

void drain(const net::Socket& read_end) {
  std::uint8_t buffer[256];
  while (::read(read_end.fd(), buffer, sizeof(buffer)) > 0) {
  }
}

class EventEngineBackend : public ::testing::TestWithParam<EngineBackend> {
 protected:
  void SetUp() override {
    if (GetParam() == EngineBackend::kEpoll && !net::epoll_supported()) {
      GTEST_SKIP() << "epoll not available on this platform";
    }
    engine_ = net::make_event_engine(GetParam());
  }

  std::unique_ptr<EventEngine> engine_;
  std::vector<ReadyEvent> ready_;
};

TEST_P(EventEngineBackend, ReportsItsBackendName) {
  EXPECT_EQ(engine_->name(), to_string(GetParam()));
  EXPECT_EQ(engine_->watched(), 0u);
}

TEST_P(EventEngineBackend, PipeReadinessRoundTrip) {
  auto [read_end, write_end] = make_pipe();
  engine_->add(read_end.fd(), 42, Interest::kRead);
  EXPECT_EQ(engine_->watched(), 1u);

  // Nothing written yet: a zero-timeout wait returns no events.
  engine_->wait(0, ready_);
  EXPECT_TRUE(ready_.empty());

  const std::uint8_t byte = 1;
  ASSERT_EQ(::write(write_end.fd(), &byte, 1), 1);
  engine_->wait(1000, ready_);
  ASSERT_EQ(ready_.size(), 1u);
  EXPECT_EQ(ready_[0].token, 42u);
  EXPECT_TRUE(ready_[0].readable);
  EXPECT_FALSE(ready_[0].writable);

  // Level-triggered: the event repeats until the byte is drained.
  engine_->wait(0, ready_);
  ASSERT_EQ(ready_.size(), 1u);
  drain(read_end);
  engine_->wait(0, ready_);
  EXPECT_TRUE(ready_.empty());
}

TEST_P(EventEngineBackend, TokensSurviveTheFullSixtyFourBits) {
  // TcpTransport packs its listener token above the 32-bit peer-id space
  // (1<<32); the engine must hand back whatever it was given, bit for bit.
  auto [read_end, write_end] = make_pipe();
  const std::uint64_t token = (1ull << 33) | 0xdeadbeefull;
  engine_->add(read_end.fd(), token, Interest::kRead);
  const std::uint8_t byte = 1;
  ASSERT_EQ(::write(write_end.fd(), &byte, 1), 1);
  engine_->wait(1000, ready_);
  ASSERT_EQ(ready_.size(), 1u);
  EXPECT_EQ(ready_[0].token, token);
}

TEST_P(EventEngineBackend, WriteInterestAndModify) {
  auto [read_end, write_end] = make_pipe();
  // An empty pipe's write end is immediately writable.
  engine_->add(write_end.fd(), 7, Interest::kWrite);
  engine_->wait(1000, ready_);
  ASSERT_EQ(ready_.size(), 1u);
  EXPECT_TRUE(ready_[0].writable);
  EXPECT_FALSE(ready_[0].readable);

  // Demoted to read interest it goes silent (nothing to read), exactly the
  // write-queue-drained transition TcpTransport makes after every flush.
  engine_->modify(write_end.fd(), 7, Interest::kRead);
  engine_->wait(0, ready_);
  EXPECT_TRUE(ready_.empty());

  engine_->modify(write_end.fd(), 7, Interest::kReadWrite);
  engine_->wait(0, ready_);
  ASSERT_EQ(ready_.size(), 1u);
  EXPECT_TRUE(ready_[0].writable);
}

TEST_P(EventEngineBackend, PeerHangupSurfacesAsReadableOrError) {
  auto [read_end, write_end] = make_pipe();
  engine_->add(read_end.fd(), 9, Interest::kRead);
  write_end.close();
  engine_->wait(1000, ready_);
  ASSERT_EQ(ready_.size(), 1u);
  // Either shape drives the transport into read_some(), which sees the EOF
  // and reaps the peer; what matters is that the wakeup happens at all.
  EXPECT_TRUE(ready_[0].readable || ready_[0].error);
}

TEST_P(EventEngineBackend, DuplicateAddThrows) {
  auto [read_end, write_end] = make_pipe();
  engine_->add(read_end.fd(), 1, Interest::kRead);
  EXPECT_THROW(engine_->add(read_end.fd(), 2, Interest::kRead), Error);
}

TEST_P(EventEngineBackend, ModifyUnknownFdThrows) {
  auto [read_end, write_end] = make_pipe();
  EXPECT_THROW(engine_->modify(read_end.fd(), 1, Interest::kRead), Error);
}

TEST_P(EventEngineBackend, RemoveIsIdempotentAndSilencesTheFd) {
  auto [read_end, write_end] = make_pipe();
  engine_->add(read_end.fd(), 5, Interest::kRead);
  const std::uint8_t byte = 1;
  ASSERT_EQ(::write(write_end.fd(), &byte, 1), 1);
  engine_->remove(read_end.fd());
  EXPECT_EQ(engine_->watched(), 0u);
  engine_->wait(0, ready_);
  EXPECT_TRUE(ready_.empty());
  engine_->remove(read_end.fd());  // quiet no-op the second time
}

TEST_P(EventEngineBackend, ManyFdsOnlyReadyOnesReported) {
  // The O(ready) vs O(watched) distinction the whole PR is about, as a
  // correctness property: with many idle fds and one active, exactly one
  // event comes back.
  std::vector<std::pair<net::Socket, net::Socket>> pipes;
  for (std::uint64_t i = 0; i < 64; ++i) {
    pipes.push_back(make_pipe());
    engine_->add(pipes.back().first.fd(), i, Interest::kRead);
  }
  EXPECT_EQ(engine_->watched(), 64u);
  const std::uint8_t byte = 1;
  ASSERT_EQ(::write(pipes[37].second.fd(), &byte, 1), 1);
  engine_->wait(1000, ready_);
  ASSERT_EQ(ready_.size(), 1u);
  EXPECT_EQ(ready_[0].token, 37u);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, EventEngineBackend,
    ::testing::Values(EngineBackend::kPoll, EngineBackend::kEpoll),
    [](const ::testing::TestParamInfo<EngineBackend>& info) {
      return std::string(to_string(info.param));
    });

TEST(EventEngineFactory, ParseBackendRoundTrips) {
  EXPECT_EQ(net::parse_engine_backend("auto"), EngineBackend::kAuto);
  EXPECT_EQ(net::parse_engine_backend("epoll"), EngineBackend::kEpoll);
  EXPECT_EQ(net::parse_engine_backend("poll"), EngineBackend::kPoll);
  EXPECT_THROW(net::parse_engine_backend("kqueue"), Error);
}

TEST(EventEngineFactory, AutoPicksTheBestAvailableBackend) {
  const auto engine = net::make_event_engine(EngineBackend::kAuto);
  EXPECT_EQ(std::string(engine->name()),
            net::epoll_supported() ? "epoll" : "poll");
}

}  // namespace
}  // namespace ugc
