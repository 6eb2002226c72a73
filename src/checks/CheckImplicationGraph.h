//===----------------------------------------------------------------------===//
///
/// \file
/// The Check Implication Graph (paper section 3.1), with families as
/// nodes. An edge (FI -> FJ, w) means: for any constant k,
/// Check(expr(FI) <= k) implies Check(expr(FJ) <= k + w). Edge weights
/// come from discovered implications; parallel edges keep the minimum
/// weight; the "as strong as" relation is a shortest-path query with
/// accumulated weights, combined with the within-family bound order.
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_CHECKS_CHECKIMPLICATIONGRAPH_H
#define NASCENT_CHECKS_CHECKIMPLICATIONGRAPH_H

#include "checks/CheckUniverse.h"
#include "support/DenseBitVector.h"

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

namespace nascent {

/// Which implications between checks the optimizer may exploit. These are
/// the paper's three optimizer options (section 3.4) used by the Table 3
/// ablation.
enum class ImplicationMode {
  None,            ///< a check implies only itself (NI', SE')
  CrossFamilyOnly, ///< only CIG edges between different families (LLS')
  All,             ///< within-family order and cross-family edges
};

/// Every implication mode, strongest first: the mode axis of the
/// (program, scheme, implication mode) grid, in the order sweep documents
/// list it (declaration order would put None first).
inline constexpr ImplicationMode AllImplicationModes[] = {
    ImplicationMode::All, ImplicationMode::CrossFamilyOnly,
    ImplicationMode::None};

/// The mode's short name as sweep prints it: "none", "cross", "all".
const char *implicationModeName(ImplicationMode M);

/// Weighted implication graph over the families of a CheckUniverse.
class CheckImplicationGraph {
public:
  CheckImplicationGraph(const CheckUniverse &U,
                        ImplicationMode Mode = ImplicationMode::All)
      : U(U), Mode(Mode) {}

  ImplicationMode mode() const { return Mode; }

  /// Records a discovered implication  Ci => Cj. The edge weight is
  /// bound(Cj) - bound(Ci); a smaller parallel edge weight wins.
  void addImplication(CheckID Ci, CheckID Cj);

  /// Adds a raw weighted edge between families.
  void addFamilyEdge(FamilyID From, FamilyID To, int64_t Weight);

  /// True when performing \p Ci makes performing \p Cj unnecessary,
  /// honouring the implication mode.
  bool isAsStrongAs(CheckID Ci, CheckID Cj) const;

  /// Minimal accumulated weight of a path From -> To; nullopt when
  /// unconnected. The trivial path has weight 0.
  std::optional<int64_t> pathWeight(FamilyID From, FamilyID To) const;

  /// Sets in \p Out (sized to the universe) every check that \p C is as
  /// strong as, including \p C itself. This is the availability gen set of
  /// a check statement.
  void weakerClosure(CheckID C, DenseBitVector &Out) const;

  /// Same-family variant: \p C plus all weaker checks in its family. This
  /// is the anticipatability gen set (the paper's stronger condition that
  /// keeps insertion points sound).
  void weakerClosureSameFamily(CheckID C, DenseBitVector &Out) const;

  /// Visits every family reachable from \p From (excluding \p From) as
  /// Fn(To, Weight) with its minimal accumulated path weight, targets
  /// ascending. This is the backing for batch closure construction
  /// (opt/CheckContext), which shares one reachability scan across all of
  /// a family's members.
  template <typename CallableT>
  void forEachReachable(FamilyID From, CallableT Fn) const {
    const std::vector<int64_t> &Dist = shortestFrom(From);
    size_t E = std::min(Dist.size(), U.numFamilies());
    for (size_t To = 0; To != E; ++To)
      if (To != From && Dist[To] != Unreachable)
        Fn(static_cast<FamilyID>(To), Dist[To]);
  }

  size_t numEdges() const { return EdgeCount; }

  /// Visits every stored edge as Fn(From, To, Weight), sources ascending
  /// and targets ascending within a source. The consistency lint uses
  /// this to validate the graph's global shape (no negative asymmetry)
  /// without widening the mutation API.
  template <typename CallableT> void forEachEdge(CallableT Fn) const {
    for (size_t From = 0, E = Edges.size(); From != E; ++From)
      for (const Edge &Ed : Edges[From])
        Fn(static_cast<FamilyID>(From), Ed.To, Ed.W);
  }

private:
  /// One adjacency entry; the per-source vectors stay sorted by To.
  struct Edge {
    FamilyID To;
    int64_t W;
  };

  /// Sentinel distance for "no path".
  static constexpr int64_t Unreachable =
      std::numeric_limits<int64_t>::max();

  /// A cached single-source shortest-path row. Dist is indexed by target
  /// family and sized to the family count at computation time; targets
  /// past the end are unreachable (new families have no in-edges until an
  /// addFamilyEdge invalidates the rows it can improve), so family growth
  /// alone never stales a row.
  struct DistRow {
    bool Valid = false;
    std::vector<int64_t> Dist;
  };

  /// Shortest path weights from \p From via label-correcting search
  /// (weights can be negative; implication graphs are small and cycles
  /// with negative total weight cannot arise from sound implications —
  /// guarded anyway).
  const std::vector<int64_t> &shortestFrom(FamilyID From) const;

  /// Row lookup helper honouring the short-Dist convention.
  static int64_t distOf(const DistRow &Row, FamilyID To) {
    return To < Row.Dist.size() ? Row.Dist[To] : Unreachable;
  }

  const CheckUniverse &U;
  ImplicationMode Mode;
  /// Adjacency indexed by source family (dense; slots past the last
  /// source with out-edges simply do not exist yet).
  std::vector<std::vector<Edge>> Edges;
  size_t EdgeCount = 0;
  /// One past the largest family id any edge references; the distance
  /// rows' node space must cover it even before those families intern.
  size_t MaxNode = 0;

  /// Cached rows indexed by source family.
  mutable std::vector<DistRow> Rows;
};

} // namespace nascent

#endif // NASCENT_CHECKS_CHECKIMPLICATIONGRAPH_H
