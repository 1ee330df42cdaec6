// The dense reference basis for the LP oracle tests: the explicit m x m
// basis inverse, updated by elementary row operations. Its factorization
// (including warm-start repair) goes through MakeLuFactorization, so the two
// representations agree on which columns a singular basis ejects; every
// solve and update after that is plain dense arithmetic. Tests run it
// through ilp::SolveLpWithBasis and compare it with the sparse LU.

#ifndef RDFSR_TESTS_SUPPORT_DENSE_INVERSE_H_
#define RDFSR_TESTS_SUPPORT_DENSE_INVERSE_H_

#include <memory>

#include "ilp/basis.h"

namespace rdfsr::ilp {

std::unique_ptr<BasisRep> MakeDenseInverse(int m);

}  // namespace rdfsr::ilp

#endif  // RDFSR_TESTS_SUPPORT_DENSE_INVERSE_H_
