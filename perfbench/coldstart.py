"""One cold start, as a CLI user pays it: a fresh interpreter imports
bgeo.cli, then the seeded input documents are generated and written.
run.py times the whole process.

Usage: python3 perfbench/coldstart.py WORKLOAD SEED OUTDIR [--small]
"""

import sys


def main():
    import bgeo.cli  # noqa: F401
    import docs

    workload, seed, outdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    docs.write_workload(workload, seed, outdir, small="--small" in sys.argv)


if __name__ == "__main__":
    main()
