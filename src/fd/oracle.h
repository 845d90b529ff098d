// NaiveFdOracle: brute-force Full Disjunction for tiny inputs.
//
// Directly materializes the definition — joins of ALL connected,
// join-consistent tuple subsets, then subsumption elimination — with no
// maximality shortcuts, component decomposition, or pruning. Exponential in
// the input size; exists solely as the ground truth the production
// implementation is property-tested against.
#ifndef LAKEFUZZ_FD_ORACLE_H_
#define LAKEFUZZ_FD_ORACLE_H_

#include "fd/full_disjunction.h"

namespace lakefuzz {

/// Computes FD by subset enumeration over the problem's code rows, decoded
/// through its dictionary — so it serves Build and BuildInterned problems
/// alike, index built or not. Rejects instances with more than
/// `max_tuples` input tuples (default 20 ⇒ ~1M subsets).
Result<std::vector<FdResultTuple>> NaiveFdOracle(const FdProblem& problem,
                                                 size_t max_tuples = 20);

}  // namespace lakefuzz

#endif  // LAKEFUZZ_FD_ORACLE_H_
