"""The repo's benchmark: seven closed-loop Linda workloads, five
end-to-end metrics, and a per-layer ladder measured in a separate traced
pass.  See README.md in this directory; ``BENCHMARK.json`` at the repo
root declares the same names, units, directions and bounds.
"""
