//===----------------------------------------------------------------------===//
///
/// \file
/// Check strengthening (Gupta; paper section 3.3): each check is replaced
/// by the strongest check of its family that is anticipatable at its
/// program point. The stronger check subsumes the original and makes
/// later family members redundant — the paper's Figure 1(b) to 1(c)
/// transformation.
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_OPT_CHECKSTRENGTHENING_H
#define NASCENT_OPT_CHECKSTRENGTHENING_H

#include "obs/Provenance.h"
#include "opt/CheckContext.h"

namespace nascent {

/// Statistics of one strengthening run.
struct StrengtheningStats {
  unsigned ChecksStrengthened = 0;
};

/// Replaces checks in \p F by their strongest anticipatable same-family
/// member, in place. One Strengthened lifecycle event per replacement
/// goes to \p Prov when given (the check keeps its tag; the event's edge
/// carries the pre-rewrite form); it reads as a `strengthened` remark.
StrengtheningStats runCheckStrengthening(Function &F,
                                         const CheckContext &Ctx,
                                         obs::ProvenanceRecorder *Prov = nullptr);

} // namespace nascent

#endif // NASCENT_OPT_CHECKSTRENGTHENING_H
