#pragma once

// Readiness engine behind the TCP event loop (see net/frame.h for the
// src/net layering note): a registered set of fds, each carrying a caller
// token, and a wait() that reports only the fds that are actually ready.
//
// One backend per platform, chosen by make_event_engine:
//
//   EpollEngine — Linux epoll, level-triggered. Registration lives in the
//     kernel, so wait() costs O(ready): with ten thousand idle workers and
//     three active ones, the loop touches three. Level-trigger (rather than
//     EPOLLET) keeps the readiness contract identical to poll()'s — the
//     transport's fairness bound may leave bytes buffered in a socket and
//     relies on being re-woken for them.
//   PollEngine — portable poll(2) over a persistent pollfd array, the
//     backend everywhere else. The kernel re-scans every registered fd per
//     wait (O(watched)). Linux runs the whole net test suite over it too
//     (UGC_NET_ENGINE=poll), so the two stay behaviorally interchangeable.
//
// Engines are single-owner, no internal locking, same discipline as
// FrameDecoder.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/error.h"

namespace ugc::net {

// What a registered fd should be watched for. Write interest is toggled by
// the transport only while a write queue is non-empty, so a quiet grid arms
// kRead everywhere and wait() sleeps until real traffic.
enum class Interest : std::uint8_t {
  kNone = 0,
  kRead = 1,
  kWrite = 2,
  kReadWrite = 3,
};

inline bool wants_read(Interest interest) {
  return (static_cast<std::uint8_t>(interest) & 1) != 0;
}
inline bool wants_write(Interest interest) {
  return (static_cast<std::uint8_t>(interest) & 2) != 0;
}

// One ready fd, reported by token (the transport keys peers by id, never by
// fd). `error` folds HUP/ERR together: the reader path observes the actual
// failure (EOF or errno) on its next syscall, same as the poll loop did.
struct ReadyEvent {
  std::uint64_t token = 0;
  bool readable = false;
  bool writable = false;
  bool error = false;
};

class EventEngine {
 public:
  virtual ~EventEngine() = default;

  EventEngine() = default;
  EventEngine(const EventEngine&) = delete;
  EventEngine& operator=(const EventEngine&) = delete;

  // Registers `fd` with the given interest. The token is returned verbatim
  // in every ReadyEvent for this fd. Registering an fd twice throws.
  virtual void add(int fd, std::uint64_t token, Interest interest) = 0;

  // Updates interest (and token) for a registered fd; unknown fds throw.
  virtual void modify(int fd, std::uint64_t token, Interest interest) = 0;

  // Deregisters; unknown fds are a quiet no-op (drop paths race with EOF).
  virtual void remove(int fd) = 0;

  // Blocks up to `timeout_ms` (-1 = until something is ready), then fills
  // `out` (cleared first) with every ready fd. Returns out.size(). EINTR is
  // absorbed and reported as zero events.
  virtual std::size_t wait(int timeout_ms, std::vector<ReadyEvent>& out) = 0;

  virtual std::size_t watched() const = 0;
  virtual const char* name() const = 0;
};

// The values are fixed, and 1 stays unused: parameterized tests print them
// into their test names, so renumbering would rename those tests.
enum class EngineBackend {
  kAuto = 0,   // epoll on Linux, poll elsewhere
  kEpoll = 2,  // require epoll; make_event_engine throws where unsupported
  kPoll = 3,   // force the portable fallback
};

// True when this build can construct the epoll backend.
bool epoll_supported();

// Parses "auto" | "epoll" | "poll"; throws on anything else.
EngineBackend parse_engine_backend(const std::string& name);
const char* to_string(EngineBackend backend);

std::unique_ptr<EventEngine> make_event_engine(
    EngineBackend backend = EngineBackend::kAuto);

}  // namespace ugc::net
