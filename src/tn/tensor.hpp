/// \file tensor.hpp
/// A tensor-network tensor: a TDD plus its declared index set.
///
/// The declared indices matter independently of the diagram: a reduced TDD
/// has no node for a variable the tensor does not depend on, yet contraction
/// over that variable still contributes a factor 2 per the tensor-network
/// semantics.  Keeping the index set explicit is what makes contraction
/// correct.
#pragma once

#include <vector>

#include "tdd/manager.hpp"

namespace qts::tn {

struct Tensor {
  tdd::Edge edge;
  std::vector<tdd::Level> indices;  // sorted ascending, duplicate-free

  [[nodiscard]] bool has_index(tdd::Level l) const;
};

/// Sorted intersection of two sorted index lists.
std::vector<tdd::Level> shared_indices(const std::vector<tdd::Level>& a,
                                       const std::vector<tdd::Level>& b);

/// Sorted union of two sorted index lists.
std::vector<tdd::Level> union_indices(const std::vector<tdd::Level>& a,
                                      const std::vector<tdd::Level>& b);

/// Sorted difference a \ b.
std::vector<tdd::Level> minus_indices(const std::vector<tdd::Level>& a,
                                      const std::vector<tdd::Level>& b);

}  // namespace qts::tn
