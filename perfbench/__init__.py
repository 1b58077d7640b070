"""Seeded serving benchmark for edgelm.

Run one workload with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root; see README.md.
"""

# BLAS/OpenMP thread variables the benchmark pins to 1 before numpy loads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
