/// \file image.hpp
/// The paper's three image computation algorithms.
///
/// All three share the outer loop of Algorithm 1 — decompose the input
/// subspace into a basis, push every basis state through every Kraus
/// operator, and join the resulting rays — and the push itself.  They differ
/// only in what they pre-contract from a Kraus circuit before pushing kets
/// through it (PartitionImage::pre_contract):
///
///   * BasicImage (§IV-C) contracts the whole circuit into one monolithic
///     operator TDD;
///   * AdditionImage (§V-A) slices the k highest-degree indices of the
///     circuit's index graph into 2^k pre-contracted parts ϕᵢ and uses
///     cont(ψ, ϕ) = Σᵢ cont(ψ, ϕᵢ);
///   * ContractionImage (§V-B) cuts the circuit into (k1, k2) blocks kept
///     as a tensor network, so the monolithic operator is never
///     materialised.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/execution_context.hpp"
#include "qts/simulate.hpp"
#include "qts/system.hpp"
#include "tn/circuit_tensors.hpp"
#include "tn/contract.hpp"

namespace qts {

/// Common machinery for the three algorithms.  Every computer reports time,
/// peak #node, cache behaviour and deadline state through one
/// ExecutionContext: either an external one passed at construction (shared
/// with a fixpoint loop or a whole pipeline) or a private default.
class ImageComputer {
 public:
  explicit ImageComputer(tdd::Manager& mgr, ExecutionContext* ctx = nullptr)
      : mgr_(mgr), ctx_(ctx != nullptr ? ctx : &own_ctx_) {}
  virtual ~ImageComputer() = default;
  ImageComputer(const ImageComputer&) = delete;
  ImageComputer& operator=(const ImageComputer&) = delete;

  [[nodiscard]] virtual std::string name() const = 0;

  /// T_σ(S): the join of span{E|b⟩} over Kraus operators E and basis kets b,
  /// assembled from image_kets({op}, basis of S).
  Subspace image(const QuantumOperation& op, const Subspace& s);

  /// T(S) = ⋁_σ T_σ(S) over every operation of the system.
  Subspace image(const TransitionSystem& sys, const Subspace& s);

  /// The one imaging hook: the image kets of `kets` under every Kraus
  /// circuit of every operation in `ops`, op-major, Kraus-major, ket-minor,
  /// with no subspace assembly at all.  This feeds both image() and the
  /// FixpointDriver's single Gram-Schmidt pass (Subspace::add_states), which
  /// is the only place any image is tested against an accumulator.  The
  /// default applies each Kraus circuit to each ket on this computer's
  /// manager (apply_kraus).  Overrides may shard that loop (parallel) or run
  /// it in another representation (statevector, sparse); they return a
  /// family with the same span, in an order that never depends on how the
  /// work was divided.
  virtual std::vector<tdd::Edge> image_kets(std::span<const QuantumOperation> ops,
                                            std::span<const tdd::Edge> kets, std::uint32_t n);

  /// True when image_kets is not the per-ket apply_kraus loop (parallel,
  /// the representation seam, fallback chains).  Callers that replay that
  /// loop themselves, ket by ket, must refuse such engines.
  [[nodiscard]] virtual bool shards_frontier() const { return false; }

  /// Number of shards an image_kets call over `tasks` Kraus×ket tasks is
  /// cut into: 1 for every engine that runs the call on the caller's thread.
  [[nodiscard]] virtual std::size_t shard_count(std::size_t /*tasks*/) const { return 1; }

  /// One cell of the Kraus×basis loop: apply a single Kraus circuit to a ket
  /// (preparing and caching the operator on first use) and account for it —
  /// deadline poll, peak record, kraus_applications counter.  The public
  /// building block for engines that shard the loop across workers.
  tdd::Edge apply_kraus(const circ::Circuit& kraus, const tdd::Edge& ket,
                        std::uint32_t num_qubits);

  /// The run-control spine this computer reports through.
  [[nodiscard]] ExecutionContext& context() const { return *ctx_; }

  /// Cooperative wall-clock budget; DeadlineExceeded is thrown when spent.
  void set_deadline(const Deadline& d) { ctx_->set_deadline(d); }

  [[nodiscard]] const RunStats& stats() const { return ctx_->stats(); }
  void reset_stats() { ctx_->reset_stats(); }

  /// Drop cached pre-contracted operators (they key on Circuit addresses,
  /// so call this if a system's circuits are destroyed or mutated).  Virtual
  /// so delegating engines forward it to the caches they actually fill (the
  /// parallel engine's workers).
  virtual void clear_prepared() { prepared_.clear(); }

  /// TDD roots held by the prepared-operator cache.  Long-running fixpoint
  /// loops pass these (plus their own live subspaces) to Manager::gc so the
  /// node pool stays bounded without invalidating cached operators.  Virtual
  /// because delegating engines must report the caches they actually fill:
  /// the parallel engine's workers prepare operators in the SHARED manager,
  /// so omitting their roots would let a driver GC sweep live operators.
  [[nodiscard]] virtual std::vector<tdd::Edge> prepared_roots() const;

  [[nodiscard]] tdd::Manager& manager() const { return mgr_; }

 protected:
  /// Per-Kraus-circuit pre-processing result, cached by prepared_for().
  struct Prepared {
    virtual ~Prepared() = default;
    /// Append every TDD edge this prepared operator keeps alive.
    virtual void collect_roots(std::vector<tdd::Edge>& out) const = 0;
  };

  virtual std::unique_ptr<Prepared> prepare(const circ::Circuit& kraus) = 0;

  /// Apply a prepared Kraus operator to a ket on the canonical state levels;
  /// the result is the (unnormalised) image ket on the same levels.
  virtual tdd::Edge apply(const Prepared& prep, const tdd::Edge& ket,
                          std::uint32_t num_qubits) = 0;

  const Prepared& prepared_for(const circ::Circuit& kraus);

  tdd::Manager& mgr_;
  ExecutionContext own_ctx_;
  ExecutionContext* ctx_;

 private:
  std::unordered_map<const circ::Circuit*, std::unique_ptr<Prepared>> prepared_;
};

/// The paper's algorithms: a Kraus circuit is prepared once into a push plan
/// plus a sum of tensor lists, and a ket's image is the sum of its pushes
/// through those lists.  Subclasses choose only the tensor lists.
class PartitionImage : public ImageComputer {
 public:
  using ImageComputer::ImageComputer;

 protected:
  /// Σ over terms of push(term): each term is a tensor list whose network
  /// contracts to that term's share of the circuit tensor.
  using Terms = std::vector<std::vector<tn::Tensor>>;

  /// What to push kets through, for a circuit network with at least one
  /// gate tensor.
  virtual Terms pre_contract(const tn::CircuitNetwork& net) = 0;

 private:
  struct Operator;
  std::unique_ptr<Prepared> prepare(const circ::Circuit& kraus) final;
  tdd::Edge apply(const Prepared& prep, const tdd::Edge& ket, std::uint32_t n) final;
};

/// Algorithm 1: monolithic operator TDD per Kraus circuit.
class BasicImage final : public PartitionImage {
 public:
  using PartitionImage::PartitionImage;
  [[nodiscard]] std::string name() const override { return "basic"; }

 protected:
  Terms pre_contract(const tn::CircuitNetwork& net) override;
};

/// §V-A: addition partition with k sliced indices (2^k parts).
class AdditionImage final : public PartitionImage {
 public:
  AdditionImage(tdd::Manager& mgr, std::size_t k, ExecutionContext* ctx = nullptr)
      : PartitionImage(mgr, ctx), k_(k) {}
  [[nodiscard]] std::string name() const override { return "addition"; }
  [[nodiscard]] std::size_t k() const { return k_; }

 protected:
  Terms pre_contract(const tn::CircuitNetwork& net) override;

 private:
  std::size_t k_;
};

/// §V-B: contraction partition with parameters (k1, k2).
class ContractionImage final : public PartitionImage {
 public:
  ContractionImage(tdd::Manager& mgr, std::uint32_t k1, std::uint32_t k2,
                   ExecutionContext* ctx = nullptr)
      : PartitionImage(mgr, ctx), k1_(k1), k2_(k2) {}
  [[nodiscard]] std::string name() const override { return "contraction"; }
  [[nodiscard]] std::uint32_t k1() const { return k1_; }
  [[nodiscard]] std::uint32_t k2() const { return k2_; }

 protected:
  Terms pre_contract(const tn::CircuitNetwork& net) override;

 private:
  std::uint32_t k1_;
  std::uint32_t k2_;
};

}  // namespace qts
