"""Run the independent verification suites and show a negative control.

Each suite cross-checks the tableau formulas through machinery that shares
nothing with them: the Stanley-Reisner face sum of the coordinate-subspace
arrangement (K), a reduced-word subword formula (cohomology), moment-graph divisibility
along reflection edges (both), and the lowest-order comparison between the
two theories.
"""

from lgrass import gkm_check, gkm_edges, IsotropicIndex, run_verification

n = 2
print(f"verifying rank {n} exhaustively:")
for report in run_verification(n):
    status = "pass" if report.ok else "FAIL"
    print(f"  {report.suite:<11} {report.checks:>4} checks  {status}")
print()

print("the moment graph at rank 2 has these edges:")
for edge in gkm_edges(2):
    print(f"  {str(edge.beta1):>5} -- {str(edge.beta2):<5}  root {edge.root}")
print()

# Negative control: corrupt one value and watch divisibility break.
alpha = IsotropicIndex.from_signed(2, (-2, -1))
clean = gkm_check(alpha, 2, "H")
broken = gkm_check(alpha, 2, "H", corrupt=True)
print(f"clean table:     {clean.checks} edges, "
      f"{len(clean.failures)} failures")
print(f"corrupted table: {broken.checks} edges, "
      f"{len(broken.failures)} failures, e.g. {broken.failures[0]}")
