#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/error.h"
#include "common/types.h"

namespace ugc {

// The contiguous input domain D = {x_0 .. x_{n-1}} assigned to a participant.
// Inputs are 64-bit values; workloads map them to whatever structure they
// need (candidate keys, signal block seeds, molecule ids, ...).
class Domain {
 public:
  // Half-open interval [begin, end); must be non-empty.
  Domain(std::uint64_t begin, std::uint64_t end) : begin_(begin), end_(end) {
    check(begin < end, "Domain: empty interval [", begin, ", ", end, ")");
  }

  std::uint64_t begin() const { return begin_; }
  std::uint64_t end() const { return end_; }
  std::uint64_t size() const { return end_ - begin_; }

  // The i-th input x_i.
  std::uint64_t input(LeafIndex i) const {
    check(i.value < size(), "Domain: index ", i.value, " out of range (n=",
          size(), ")");
    return begin_ + i.value;
  }

  bool contains(std::uint64_t x) const { return x >= begin_ && x < end_; }

  // Splits into `parts` near-equal contiguous subdomains (for the grid
  // scheduler). Earlier parts get the remainder.
  std::vector<Domain> split(std::size_t parts) const;

  friend bool operator==(const Domain&, const Domain&) = default;

 private:
  std::uint64_t begin_;
  std::uint64_t end_;
};

// The function f : X -> T the grid evaluates. Results are fixed-width byte
// strings so that guessed values, wire encodings, and Merkle leaves are
// well-defined without evaluating f.
class ComputeFunction {
 public:
  virtual ~ComputeFunction() = default;

  ComputeFunction() = default;
  ComputeFunction(const ComputeFunction&) = delete;
  ComputeFunction& operator=(const ComputeFunction&) = delete;

  // Evaluates f(x). Must be deterministic, and safe to call concurrently
  // from multiple threads — the participant engine sweeps large domains in
  // parallel. Keep implementations stateless or guard mutable members
  // (CountingComputeFunction's atomic counter is the model).
  virtual Bytes evaluate(std::uint64_t x) const = 0;

  // Evaluates f(x) into `out` (result_size() bytes), the allocation-free
  // form the supervisor's verification hot loop recomputes samples through.
  // The default wraps evaluate(); hot workloads override it.
  virtual void evaluate_into(std::uint64_t x,
                             std::span<std::uint8_t> out) const {
    const Bytes value = evaluate(x);
    check(out.size() == value.size(), "evaluate_into: need ", value.size(),
          " bytes, got ", out.size());
    std::memcpy(out.data(), value.data(), value.size());
  }

  // Width of every result in bytes (> 0).
  virtual std::size_t result_size() const = 0;

  virtual std::string name() const = 0;
};

// Decorator that counts evaluations; used for all cost accounting (honest
// work, cheater work, supervisor verification work).
class CountingComputeFunction final : public ComputeFunction {
 public:
  explicit CountingComputeFunction(std::shared_ptr<const ComputeFunction> inner)
      : inner_(std::move(inner)) {
    check(inner_ != nullptr, "CountingComputeFunction: inner is null");
  }

  Bytes evaluate(std::uint64_t x) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    return inner_->evaluate(x);
  }
  void evaluate_into(std::uint64_t x,
                     std::span<std::uint8_t> out) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    inner_->evaluate_into(x, out);
  }
  std::size_t result_size() const override { return inner_->result_size(); }
  std::string name() const override { return inner_->name(); }

  std::uint64_t calls() const { return calls_.load(std::memory_order_relaxed); }
  void reset_calls() { calls_.store(0, std::memory_order_relaxed); }

 private:
  std::shared_ptr<const ComputeFunction> inner_;
  mutable std::atomic<std::uint64_t> calls_{0};
};

// The paper's screener S(x; f(x)): emits a report string for "valuable"
// outputs that must reach the supervisor. Its cost is assumed negligible
// next to f.
class Screener {
 public:
  virtual ~Screener() = default;

  Screener() = default;
  Screener(const Screener&) = delete;
  Screener& operator=(const Screener&) = delete;

  // Returns a report when (x, f(x)) is of interest, std::nullopt otherwise.
  // Must be deterministic and thread-safe: the participant engine screens
  // leaves concurrently in the parallel domain sweep.
  virtual std::optional<std::string> screen(std::uint64_t x,
                                            BytesView fx) const = 0;

  virtual std::string name() const = 0;
};

// Screener that reports nothing — for pure verification experiments.
class NullScreener final : public Screener {
 public:
  std::optional<std::string> screen(std::uint64_t, BytesView) const override {
    return std::nullopt;
  }
  std::string name() const override { return "null"; }
};

// One "valuable" output reported to the supervisor.
struct ScreenerHit {
  std::uint64_t x = 0;
  std::string report;

  friend bool operator==(const ScreenerHit&, const ScreenerHit&) = default;
};

// A unit of grid work handed to one participant: evaluate f over `domain`,
// report screener hits. Function objects are shared so tasks copy cheaply
// across simulated nodes.
struct Task {
  TaskId id;
  Domain domain;
  std::shared_ptr<const ComputeFunction> f;
  std::shared_ptr<const Screener> screener;

  static Task make(TaskId id, Domain domain,
                   std::shared_ptr<const ComputeFunction> f,
                   std::shared_ptr<const Screener> screener = nullptr) {
    check(f != nullptr, "Task: compute function required");
    if (screener == nullptr) {
      screener = std::make_shared<NullScreener>();
    }
    return Task{id, domain, std::move(f), std::move(screener)};
  }
};

// Checks a claimed f(x). The paper notes verification can be much cheaper
// than computation (e.g. factoring); generic computations fall back to
// recomputation.
class ResultVerifier {
 public:
  virtual ~ResultVerifier() = default;

  ResultVerifier() = default;
  ResultVerifier(const ResultVerifier&) = delete;
  ResultVerifier& operator=(const ResultVerifier&) = delete;

  virtual bool verify(std::uint64_t x, BytesView claimed_fx) const = 0;
  virtual std::string name() const = 0;
};

// Generic verifier: recompute f(x) and compare bytes.
class RecomputeVerifier final : public ResultVerifier {
 public:
  explicit RecomputeVerifier(std::shared_ptr<const ComputeFunction> f)
      : f_(std::move(f)) {
    check(f_ != nullptr, "RecomputeVerifier: compute function required");
  }

  bool verify(std::uint64_t x, BytesView claimed_fx) const override {
    // Recompute into a stack buffer for typical result widths so the
    // supervisor's per-sample check allocates nothing; the comparison (and
    // the evaluation count) is identical to the evaluate() form.
    constexpr std::size_t kMaxStackResult = 128;
    const std::size_t size = f_->result_size();
    if (size <= kMaxStackResult) {
      std::uint8_t computed[kMaxStackResult];
      f_->evaluate_into(x, std::span<std::uint8_t>(computed, size));
      return equal_bytes(BytesView(computed, size), claimed_fx);
    }
    return equal_bytes(f_->evaluate(x), claimed_fx);
  }
  std::string name() const override { return "recompute(" + f_->name() + ")"; }

 private:
  std::shared_ptr<const ComputeFunction> f_;
};

}  // namespace ugc
