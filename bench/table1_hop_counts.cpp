// Reproduces Table 1: aggregate vertical/horizontal hop counts per MC
// placement, closed form vs exact enumeration (Eq. 3), and the resulting
// average-hop ordering bottom > edge > top-bottom > diamond.
#include <iostream>

#include "analytic/hop_count.hpp"
#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace gnoc;
  using namespace gnoc::bench;

  const BenchOptions opts = ParseBenchOptions(
      argc, argv, "table1_hop_counts",
      "Table 1: analytic average hop counts per MC placement",
      // It simulates nothing: no run length, workloads or sweep.
      /*config_keys=*/{}, /*run_flags=*/{"csv", "json"}, [](FlagSet& flags) {
        flags.AddInt("n", 8, "mesh side length", [](std::int64_t v) {
          return v < 1 ? std::string("must be >= 1") : std::string();
        });
      });
  const int n = static_cast<int>(opts.raw.GetInt("n", 8));

  std::cout << SectionHeader(
      "Table 1 — Average vertical/horizontal hops per MC placement (N=" +
      std::to_string(n) + ")");

  TextTable table({"placement", "Hvert (closed)", "Hvert (exact)",
                   "Hhori (closed)", "Hhori (exact)", "avg hops (Eq. 3)"});
  for (McPlacement p : kAllPlacements) {
    // The diamond ring is defined for 8 MCs (same rule as the N-sweep
    // below); other placements scale with N per the paper.
    if (p == McPlacement::kDiamond && n % 8 != 0) continue;
    const TilePlan plan(n, n, p == McPlacement::kDiamond ? 8 : n, p);
    const HopCounts exact = EnumerateHopCounts(Topology::Mesh(n, n), plan);
    const ClosedFormHops closed = ClosedFormHopCounts(p, n);
    table.AddRow(
        {McPlacementName(p),
         FormatDouble(closed.vertical, 0) +
             (closed.vertical_exact ? "" : " (approx)"),
         FormatDouble(exact.vertical, 0),
         FormatDouble(closed.horizontal, 0) +
             (closed.horizontal_exact ? "" : " (approx)"),
         FormatDouble(exact.horizontal, 0), FormatDouble(exact.average(), 3)});
  }
  Emit(table, opts.csv);

  BenchReport report("table1_hop_counts", opts);
  report.Table("hop_counts", table);

  std::cout << "\nPaper reports (Table 1 closed forms, N x N mesh):\n"
               "  bottom:     Hvert = N^3(N-1)/2,     Hhori = N(N+1)(N-1)^2/3\n"
               "  edge:       Hhori = N^2(N-1)^2/2    (vertical approximate)\n"
               "  top-bottom: Hvert = N^2(N-1)^2/2,   Hhori ~ N(N+1)(N-1)^2/3\n"
               "  diamond:    smallest totals (we use the derived\n"
               "              N^2(N^2-1)/4 per dimension; the paper's printed\n"
               "              N^2(N+1)(N-2)/8 normalizes implausibly small)\n"
               "and the ordering bottom > edge > top-bottom > diamond.\n";

  // Sweep of the average over mesh sizes (ordering must be stable).
  std::cout << SectionHeader("Average hops vs mesh size");
  TextTable sweep({"N", "bottom", "edge", "top-bottom", "diamond"});
  for (int size = 4; size <= 16; size += 2) {
    const Topology mesh = Topology::Mesh(size, size);
    std::vector<double> row;
    for (McPlacement p : kAllPlacements) {
      if (p == McPlacement::kDiamond && size % 8 != 0) {
        // The diamond ring is defined for 8 MCs; scale only for multiples.
        row.push_back(0.0);
        continue;
      }
      const int mcs = p == McPlacement::kDiamond ? 8 : size;
      const TilePlan plan(size, size, mcs, p);
      row.push_back(EnumerateHopCounts(mesh, plan).average());
    }
    sweep.AddRow("N=" + std::to_string(size), row, 3);
  }
  Emit(sweep, opts.csv);
  report.Table("hops_vs_mesh_size", sweep);

  // Per-topology extension of the same analysis: idealized all-pairs average
  // router distance, closed form vs brute-force enumeration of the graph
  // distance (the forms are exact; see IdealizedAverageDistance).
  std::cout << SectionHeader("Idealized average distance per topology (N=" +
                             std::to_string(n) + ")");
  TextTable topo_table({"topology", "closed form", "exact enumeration"});
  std::vector<Topology> topologies;
  topologies.push_back(Topology::Mesh(n, n));
  topologies.push_back(Topology::Torus(n, n));
  if (n % 2 == 0) topologies.push_back(Topology::CMesh(n, n));
  topologies.push_back(Topology::Circulant(n * n, 1, 0));
  for (const Topology& topo : topologies) {
    double brute = 0.0;
    const int tiles = topo.num_tiles();
    for (NodeId a = 0; a < tiles; ++a) {
      for (NodeId b = 0; b < tiles; ++b) brute += topo.Distance(a, b);
    }
    brute /= static_cast<double>(tiles) * static_cast<double>(tiles);
    std::string label = TopologyName(topo.kind());
    if (topo.kind() == TopologyKind::kCirculant) {
      label += '(';
      label += std::to_string(topo.num_tiles());
      label += "; ";
      label += std::to_string(topo.circulant_s1());
      label += ',';
      label += std::to_string(topo.circulant_s2());
      label += ')';
    }
    topo_table.AddRow({label, FormatDouble(IdealizedAverageDistance(topo), 4),
                       FormatDouble(brute, 4)});
  }
  Emit(topo_table, opts.csv);
  report.Table("topology_avg_distance", topo_table);
  return 0;
}
