#include "net/event_engine.h"

#include <poll.h>

#include <cerrno>
#include <cstring>
#include <unordered_map>

#include "net/socket.h"

#ifdef __linux__
#include <sys/epoll.h>
#include <unistd.h>
#endif

namespace ugc::net {

namespace {

#ifdef __linux__

class EpollEngine final : public EventEngine {
 public:
  EpollEngine() : epfd_(::epoll_create1(0)), events_(256) {
    if (epfd_ < 0) {
      throw SocketError(concat("epoll_create1: ", std::strerror(errno)));
    }
  }

  ~EpollEngine() override { ::close(epfd_); }

  void add(int fd, std::uint64_t token, Interest interest) override {
    epoll_event event = make_event(token, interest);
    if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &event) < 0) {
      throw SocketError(concat("epoll_ctl(ADD): ", std::strerror(errno)));
    }
    ++watched_;
  }

  void modify(int fd, std::uint64_t token, Interest interest) override {
    epoll_event event = make_event(token, interest);
    if (::epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &event) < 0) {
      throw SocketError(concat("epoll_ctl(MOD): ", std::strerror(errno)));
    }
  }

  void remove(int fd) override {
    if (::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr) == 0) {
      --watched_;
    }
    // ENOENT/EBADF: already gone (close() deregisters) — the quiet no-op
    // the interface promises.
  }

  std::size_t wait(int timeout_ms, std::vector<ReadyEvent>& out) override {
    out.clear();
    const int ready = ::epoll_wait(epfd_, events_.data(),
                                   static_cast<int>(events_.size()),
                                   timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) {
        return 0;
      }
      throw SocketError(concat("epoll_wait: ", std::strerror(errno)));
    }
    out.reserve(static_cast<std::size_t>(ready));
    for (int i = 0; i < ready; ++i) {
      const epoll_event& event = events_[static_cast<std::size_t>(i)];
      ReadyEvent ready_event;
      ready_event.token = event.data.u64;
      ready_event.readable = (event.events & EPOLLIN) != 0;
      ready_event.writable = (event.events & EPOLLOUT) != 0;
      ready_event.error = (event.events & (EPOLLERR | EPOLLHUP)) != 0;
      out.push_back(ready_event);
    }
    if (static_cast<std::size_t>(ready) == events_.size()) {
      // The kernel had more ready fds than our buffer; grow so a huge
      // burst is drained in one wait next time instead of dribbling.
      events_.resize(events_.size() * 2);
    }
    return out.size();
  }

  std::size_t watched() const override { return watched_; }
  const char* name() const override { return "epoll"; }

 private:
  static epoll_event make_event(std::uint64_t token, Interest interest) {
    epoll_event event{};
    if (wants_read(interest)) {
      event.events |= EPOLLIN;
    }
    if (wants_write(interest)) {
      event.events |= EPOLLOUT;
    }
    event.data.u64 = token;
    return event;
  }

  int epfd_;
  std::vector<epoll_event> events_;
  std::size_t watched_ = 0;
};

#endif  // __linux__

class PollEngine final : public EventEngine {
 public:
  void add(int fd, std::uint64_t token, Interest interest) override {
    check(index_.find(fd) == index_.end(), "PollEngine::add: fd ", fd,
          " already registered");
    index_.emplace(fd, fds_.size());
    fds_.push_back(pollfd{fd, events_of(interest), 0});
    tokens_.push_back(token);
  }

  void modify(int fd, std::uint64_t token, Interest interest) override {
    const auto it = index_.find(fd);
    check(it != index_.end(), "PollEngine::modify: fd ", fd,
          " not registered");
    fds_[it->second].events = events_of(interest);
    tokens_[it->second] = token;
  }

  void remove(int fd) override {
    const auto it = index_.find(fd);
    if (it == index_.end()) {
      return;
    }
    const std::size_t slot = it->second;
    const std::size_t last = fds_.size() - 1;
    if (slot != last) {
      fds_[slot] = fds_[last];
      tokens_[slot] = tokens_[last];
      index_[fds_[slot].fd] = slot;
    }
    fds_.pop_back();
    tokens_.pop_back();
    index_.erase(it);
  }

  std::size_t wait(int timeout_ms, std::vector<ReadyEvent>& out) override {
    out.clear();
    const int ready =
        ::poll(fds_.data(), static_cast<nfds_t>(fds_.size()), timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) {
        return 0;
      }
      throw SocketError(concat("poll: ", std::strerror(errno)));
    }
    if (ready == 0) {
      return 0;
    }
    // The O(watched) scan poll can't avoid — the cost curve the epoll
    // backend removes.
    for (std::size_t i = 0; i < fds_.size(); ++i) {
      const short revents = fds_[i].revents;
      if (revents == 0) {
        continue;
      }
      ReadyEvent event;
      event.token = tokens_[i];
      event.readable = (revents & POLLIN) != 0;
      event.writable = (revents & POLLOUT) != 0;
      event.error = (revents & (POLLERR | POLLHUP | POLLNVAL)) != 0;
      out.push_back(event);
    }
    return out.size();
  }

  std::size_t watched() const override { return fds_.size(); }
  const char* name() const override { return "poll"; }

 private:
  static short events_of(Interest interest) {
    short events = 0;
    if (wants_read(interest)) {
      events |= POLLIN;
    }
    if (wants_write(interest)) {
      events |= POLLOUT;
    }
    return events;
  }

  std::vector<pollfd> fds_;
  std::vector<std::uint64_t> tokens_;  // parallel to fds_
  std::unordered_map<int, std::size_t> index_;
};

}  // namespace

bool epoll_supported() {
#ifdef __linux__
  return true;
#else
  return false;
#endif
}

EngineBackend parse_engine_backend(const std::string& name) {
  if (name == "auto") {
    return EngineBackend::kAuto;
  }
  if (name == "epoll") {
    return EngineBackend::kEpoll;
  }
  if (name == "poll") {
    return EngineBackend::kPoll;
  }
  throw Error(concat("unknown event engine '", name,
                     "' (auto | epoll | poll)"));
}

const char* to_string(EngineBackend backend) {
  switch (backend) {
    case EngineBackend::kAuto:
      return "auto";
    case EngineBackend::kEpoll:
      return "epoll";
    case EngineBackend::kPoll:
      return "poll";
  }
  return "?";
}

std::unique_ptr<EventEngine> make_event_engine(EngineBackend backend) {
#ifdef __linux__
  if (backend == EngineBackend::kAuto || backend == EngineBackend::kEpoll) {
    return std::make_unique<EpollEngine>();
  }
#else
  check(backend != EngineBackend::kEpoll,
        "event engine 'epoll' is not supported on this platform");
#endif
  return std::make_unique<PollEngine>();
}

}  // namespace ugc::net
