"""Design a heterogeneous CMP for the SPEC2000 integer suite.

This is the paper's end-to-end flow (its Figure 3b):

1. customize a core per workload (configurational characterization),
2. evaluate every workload on every customized core (Table 5),
3. search core combinations under three figures of merit (Table 6),
4. compare against surrogate-greedy and homogeneous designs (Table 7).

Run:  python examples/heterogeneous_cmp_design.py [--fast]
"""

import sys

from repro.experiments import run_pipeline
from repro.experiments.artifacts import render

#: The paper's flow in order: configurations, the cross matrix and its
#: slowdowns, combinations, the greedy reduction and the summary.
ARTIFACTS = (
    "table4_customization",
    "table5_cross_ipt",
    "appendix_a_slowdowns",
    "table6_combinations",
    "figure7_surrogates_full",
    "table7_summary",
)


def main() -> None:
    iterations = 800 if "--fast" in sys.argv else 2500
    print(f"running the exploration pipeline ({iterations} annealing "
          f"iterations per workload; use --fast for a quick pass)...\n")
    pipe = run_pipeline(iterations=iterations)
    # The same text as results/<name>.txt (at the default 2500 iterations).
    print("\n".join(render(name, pipe) for name in ARTIFACTS), end="")


if __name__ == "__main__":
    main()
