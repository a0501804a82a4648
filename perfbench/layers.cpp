// In-process layer probes: each one times calls into a layer's public entry
// points (crypto, merkle, workloads, core, wire, net, auth) and records one
// span around the timed loop. Message shapes follow the workload's job
// shape, so the wire costs are the ones gridd pays on that workload; the
// core probes use the paper-scale shape n = 2^14, m = 32 on every workload.

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <type_traits>

#include "auth/handshake.h"
#include "auth/identity.h"
#include "common/rng.h"
#include "core/engine.h"
#include "core/verification.h"
#include "gridbench.h"
#include "merkle/proof.h"
#include "merkle/tree.h"
#include "net/frame.h"
#include "net/socket.h"
#include "wire/messages.h"
#include "workloads/registry.h"

namespace gridbench {
namespace {

using namespace ugc;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kCoreLeaves = 1u << 14;
constexpr std::size_t kCoreSamples = 32;
constexpr int kBatches = 5;
constexpr double kBatchNs = 4e6;  // each timed batch runs about 4 ms

// Keeps the compiler from discarding a result the probe never reads.
template <class T>
void keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

class Prober {
 public:
  explicit Prober(std::FILE* spans_out) : spans_out_(spans_out) {}

  // Median over kBatches batches of the ns one call of fn() takes. The call
  // count per batch is calibrated from a first untimed call. A probe whose
  // call consumes its input passes `refill`, which then runs untimed before
  // every call (and the batch is a single call).
  template <class Fn, class Refill = void (*)()>
  double ns_per_call(const char* span, Fn&& fn, Refill refill = [] {}) {
    constexpr bool kRefills = !std::is_same_v<Refill, void (*)()>;
    const auto begin = Clock::now();
    fn();
    const double once = elapsed_ns(begin);
    const auto calls =
        kRefills ? std::size_t{1}
                 : static_cast<std::size_t>(
                       std::clamp(kBatchNs / std::max(once, 1.0), 1.0, 1e6));
    std::array<double, kBatches> batches{};
    for (double& batch : batches) {
      refill();
      const auto start = Clock::now();
      for (std::size_t i = 0; i < calls; ++i) {
        fn();
      }
      batch = elapsed_ns(start) / static_cast<double>(calls);
    }
    std::sort(batches.begin(), batches.end());
    record(span, begin, calls * kBatches + 1);
    return batches[kBatches / 2];
  }

 private:
  static double elapsed_ns(Clock::time_point start) {
    return std::chrono::duration<double, std::nano>(Clock::now() - start)
        .count();
  }

  void record(const char* span, Clock::time_point begin, std::size_t calls) {
    if (spans_out_ == nullptr) {
      return;
    }
    const auto ns = [](Clock::time_point t) {
      return static_cast<long long>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              t.time_since_epoch())
              .count());
    };
    std::fprintf(spans_out_,
                 "{\"trace\": \"layers\", \"span\": \"%s\", \"parent\": \"\", "
                 "\"start_ns\": %lld, \"end_ns\": %lld, \"calls\": %zu}\n",
                 span, ns(begin), ns(Clock::now()), calls);
  }

  std::FILE* spans_out_;
};

// A committed task of `leaves` points plus a response to `samples` random
// challenges: the participant state that wire and verify probes need.
struct Exchange {
  Task task;
  Commitment commitment;
  std::vector<LeafIndex> samples;
  ProofResponse response;
};

Exchange make_exchange(const WorkloadBundle& bundle, std::uint64_t leaves,
                       std::size_t samples, Rng& rng) {
  ParticipantEngine engine(
      Task::make(TaskId{7}, Domain(0, leaves), bundle.f, bundle.screener), {},
      make_honest_policy());
  Exchange exchange{engine.task(), engine.commit(), {}, {}};
  for (std::size_t i = 0; i < samples; ++i) {
    exchange.samples.push_back(LeafIndex{rng.uniform(leaves)});
  }
  exchange.response = ProofResponse{TaskId{7}, engine.prove(exchange.samples)};
  return exchange;
}

}  // namespace

void probe_layers(const JobShape& shape, std::uint64_t seed,
                  std::map<std::string, Metric>& metrics, double& model_us,
                  std::FILE* spans_out) {
  Prober probe(spans_out);
  Rng rng(seed ^ 0x5851f42d4c957f2dull);
  const auto put = [&](const std::string& name, double value,
                       const char* unit) { metrics[name] = {value, unit}; };

  // crypto: one 64-byte SHA-256 (two compressions, like an interior node)
  // and one digest-pair fold.
  const std::unique_ptr<HashFunction> sha = make_hash(HashAlgorithm::kSha256);
  Bytes block = rng.bytes(64);
  std::array<std::uint8_t, 32> digest{};
  const double sha_ns = probe.ns_per_call("crypto.sha256", [&] {
    sha->hash_into(block, digest);
    block[0] ^= digest[0];
  });
  put("crypto.sha256_ns", sha_ns, "ns");
  const Bytes right = rng.bytes(32);
  put("crypto.hash_pair_ns", probe.ns_per_call("crypto.hash_pair", [&] {
        sha->hash_pair(digest, right, digest);
      }), "ns");

  // workloads: the `test` f through the supervisor's allocation-free path.
  const WorkloadBundle bundle = WorkloadRegistry::global().make("test", seed);
  std::vector<std::uint8_t> result(bundle.f->result_size());
  std::uint64_t x = 0;
  const double f_ns = probe.ns_per_call("workloads.f_eval", [&] {
    bundle.f->evaluate_into(x++, result);
    keep(result[0]);
  });
  put("workloads.f_eval_ns", f_ns, "ns");

  // merkle: full build over 2^14 leaves, and one height-14 path check.
  std::vector<Bytes> leaves;
  for (std::uint64_t i = 0; i < kCoreLeaves; ++i) {
    leaves.push_back(bundle.f->evaluate(i));
  }
  // build() consumes its leaves, so each timed call gets a copy made
  // outside the timed region.
  std::vector<std::vector<Bytes>> copies(kBatches, leaves);
  std::size_t next_copy = 0;
  const double build_ns = probe.ns_per_call(
      "merkle.build",
      [&] {
        keep(MerkleTree::build(std::move(copies[next_copy++ % kBatches]), *sha)
                 .leaf_count());
      },
      [&] { copies[next_copy % kBatches] = leaves; });
  put("merkle.build_ns_per_leaf", build_ns / static_cast<double>(kCoreLeaves),
      "ns");
  const MerkleTree tree = MerkleTree::build(leaves, *sha);
  const Bytes root = tree.root();
  std::vector<MerkleProof> proofs;
  for (int i = 0; i < 64; ++i) {
    proofs.push_back(tree.prove(LeafIndex{rng.uniform(kCoreLeaves)}));
  }
  std::size_t next_proof = 0;
  put("merkle.proof_verify_ns", probe.ns_per_call("merkle.verify_proof", [&] {
        keep(verify_proof(proofs[next_proof++ % proofs.size()], root, *sha));
      }), "ns");

  // core: the paper's Steps 1, 3 and 4 at n = 2^14, m = 32.
  const std::shared_ptr<const ResultVerifier> verifier = bundle.make_verifier();
  VerifyScratch scratch;
  SupervisorMetrics supervisor_metrics;
  const Task core_task =
      Task::make(TaskId{7}, Domain(0, kCoreLeaves), bundle.f, bundle.screener);
  put("core.commit_ms", 1e-6 * probe.ns_per_call("core.commit", [&] {
        ParticipantEngine engine(core_task, {}, make_honest_policy());
        keep(engine.commit().root[0]);
      }), "ms");
  ParticipantEngine core_engine(core_task, {}, make_honest_policy());
  const Commitment core_commitment = core_engine.commit();
  std::vector<LeafIndex> core_samples;
  for (std::size_t i = 0; i < kCoreSamples; ++i) {
    core_samples.push_back(LeafIndex{rng.uniform(kCoreLeaves)});
  }
  put("core.prove_us", 1e-3 * probe.ns_per_call("core.prove", [&] {
        keep(core_engine.prove(core_samples).size());
      }), "us");
  const ProofResponse core_response{TaskId{7}, core_engine.prove(core_samples)};
  const auto verify = [&](const Exchange& e, std::span<const LeafIndex> samples,
                          const ProofResponse& response) {
    return verify_sample_proofs(e.task, {}, e.commitment, samples, response,
                                *verifier, &supervisor_metrics, scratch);
  };
  const Exchange core{core_task, core_commitment, core_samples, core_response};
  const double verify_ns = probe.ns_per_call("core.verify", [&] {
    keep(verify(core, core.samples, core.response).status);
  });
  put("core.verify_us", verify_ns * 1e-3, "us");
  const double height = std::log2(static_cast<double>(kCoreLeaves));
  put("core.verify_model_ratio",
      verify_ns /
          (static_cast<double>(kCoreSamples) * (f_ns + height * sha_ns)),
      "ratio");

  // auth: the handshake's three steps.
  Rng identity_rng(seed);
  const double generate_ns = probe.ns_per_call("auth.generate", [&] {
    keep(auth::WorkerIdentity::generate(identity_rng).id().digest[0]);
  });
  put("auth.identity_generate_us", generate_ns * 1e-3, "us");
  const auth::WorkerIdentity identity =
      auth::WorkerIdentity::generate(identity_rng);
  const Bytes nonce = auth::handshake_nonce(rng);
  const double make_proof_ns = probe.ns_per_call("auth.make_proof", [&] {
    keep(auth::make_hello_proof(identity, nonce, kGridProtocol, "honest-1")
             .mac[0]);
  });
  put("auth.hello_proof_make_us", make_proof_ns * 1e-3, "us");
  const HelloProof hello_proof =
      auth::make_hello_proof(identity, nonce, kGridProtocol, "honest-1");
  auth::AuthInfo info;
  const double hello_verify_ns = probe.ns_per_call("auth.verify_proof", [&] {
    keep(auth::verify_hello_proof(hello_proof, nonce, kGridProtocol, nullptr,
                                  info));
  });
  put("auth.hello_verify_us", hello_verify_ns * 1e-3, "us");

  // wire: every message gridd encodes or decodes on this workload, at this
  // workload's shape. One-shot CBS is a single epoch over the whole task.
  const std::uint64_t epochs = std::max<std::uint64_t>(shape.epochs, 1);
  const std::uint64_t epoch_points =
      std::max<std::uint64_t>(shape.points / epochs, 1);
  const std::size_t epoch_samples =
      shape.pipelined() ? shape.epoch_samples
                        : std::max<std::size_t>(shape.samples, 1);
  const Exchange exchange =
      make_exchange(bundle, epoch_points, epoch_samples, rng);
  SchemeConfig scheme;
  scheme.name = shape.scheme;
  if (shape.samples > 0) {
    scheme.cbs.sample_count = shape.samples;
  }
  scheme.pipeline.epochs = shape.epochs;
  scheme.pipeline.samples_per_epoch = shape.epoch_samples;
  scheme.pipeline.max_inflight = shape.epoch_inflight;
  const Verdict verdict =
      verify(exchange, exchange.samples, exchange.response);
  const std::vector<std::pair<std::string, Message>> messages = {
      {"hello_proof", hello_proof},
      {"task_assignment",
       TaskAssignment{TaskId{7}, 0, shape.points, "test", seed, scheme, {}}},
      {"commitment", exchange.commitment},
      {"sample_challenge", SampleChallenge{TaskId{7}, exchange.samples}},
      {"proof_response", exchange.response},
      {"epoch_commitment",
       EpochCommitment{TaskId{7}, epochs - 1, epochs, exchange.commitment}},
      {"verdict", verdict},
      // Paid by gridd too, but not reported on their own.
      {"hello_challenge", HelloChallenge{kGridProtocol, nonce}},
      {"screener_report", ScreenerReport{TaskId{7}, {}}},
      {"epoch_challenge",
       EpochChallenge{TaskId{7}, epochs - 1, exchange.samples}},
      {"epoch_proof_response",
       EpochProofResponse{TaskId{7}, epochs - 1, exchange.response}},
      {"epoch_ack", EpochAck{TaskId{7}, epochs - 1}},
  };
  std::map<std::string, double> encode_ns, decode_ns;
  Bytes encoded;
  Bytes stream;  // one frame of each reported type, for the frame decoder
  for (std::size_t i = 0; i < messages.size(); ++i) {
    const auto& [name, message] = messages[i];
    encode_ns[name] = probe.ns_per_call(("wire.encode." + name).c_str(), [&] {
      encode_message_into(message, encoded);
    });
    decode_ns[name] = probe.ns_per_call(("wire.decode." + name).c_str(), [&] {
      keep(decode_message(encoded).index());
    });
    if (i < 7) {
      put("wire.encode_ns." + name, encode_ns[name], "ns");
      put("wire.decode_ns." + name, decode_ns[name], "ns");
      put("wire.bytes." + name, static_cast<double>(encoded.size()), "B");
      net::append_frame(encoded, stream);
    }
  }

  // net: FrameDecoder feed + next, per frame, over that seven-frame stream.
  net::FrameDecoder decoder;
  const double frame_ns = probe.ns_per_call("net.frame_decode", [&] {
                            decoder.feed(stream);
                            while (const auto frame = decoder.next()) {
                              keep(frame->size());
                            }
                          }) / 7.0;
  put("net.frame_decode_ns", frame_ns, "ns");

  // net: one 64-byte write_some plus the read_some that receives it, over
  // loopback TCP. run.py charges half of it to each read and write call
  // gridd's summary counts.
  const net::Socket listener = net::tcp_listen("127.0.0.1", 0);
  const net::Socket client =
      net::tcp_connect("127.0.0.1", net::local_port(listener));
  net::Socket server;
  while (!server.valid()) {
    server = net::tcp_accept(listener);
  }
  const Bytes small(64);
  std::vector<std::uint8_t> inbox(64 * 1024);
  put("net.write_read_pair_ns", probe.ns_per_call("net.write_read", [&] {
        keep(net::write_some(client, small).bytes);
        keep(net::read_some(server, inbox).bytes);
      }), "ns");

  // Supervisor Step 4 at this workload's shape: one m-sample check per
  // epoch for CBS, sample-by-sample checks for pipelined epochs.
  const std::size_t verify_calls = shape.pipelined() ? epoch_samples : 1;
  const std::size_t per_call = epoch_samples / verify_calls;
  ProofResponse part{TaskId{7}, {}};
  part.proofs.assign(exchange.response.proofs.begin(),
                     exchange.response.proofs.begin() +
                         static_cast<std::ptrdiff_t>(per_call));
  const std::span<const LeafIndex> part_samples(exchange.samples.data(),
                                                 per_call);
  const double shape_verify_ns =
      probe.ns_per_call("core.verify_at_shape", [&] {
        keep(verify(exchange, part_samples, part).status);
      });

  // The model: what gridd pays per task, layer by layer. Frames in per task:
  // hello proof, screener report, and a commitment and a proof per epoch.
  const double e = static_cast<double>(epochs);
  const bool epoched = shape.pipelined();
  const std::string commit_msg = epoched ? "epoch_commitment" : "commitment";
  const std::string challenge_msg =
      epoched ? "epoch_challenge" : "sample_challenge";
  const std::string proof_msg =
      epoched ? "epoch_proof_response" : "proof_response";
  const std::map<std::string, double> model = {
      {"auth", hello_verify_ns},
      {"wire", encode_ns["hello_challenge"] + decode_ns["hello_proof"] +
                   encode_ns["task_assignment"] + decode_ns["screener_report"] +
                   e * (decode_ns[commit_msg] + encode_ns[challenge_msg] +
                        decode_ns[proof_msg]) +
                   (epoched ? e * encode_ns["epoch_ack"] : 0.0) +
                   encode_ns["verdict"]},
      {"net", frame_ns * (2.0 + 2.0 * e)},
      {"core", e * static_cast<double>(verify_calls) * shape_verify_ns},
  };
  model_us = 0;
  for (const auto& [layer, ns] : model) {
    std::fprintf(stderr, "gridbench: model %s %.3f us/task\n", layer.c_str(),
                 ns * 1e-3);
    model_us += ns * 1e-3;
  }
}

}  // namespace gridbench
