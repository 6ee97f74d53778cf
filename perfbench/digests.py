"""Record the output digests that the oracles compare against.

    python3 perfbench/digests.py

Digests pin drplane's exact outputs on fixed inputs: the canonical traces
of orbit_exact and the canonical CLI commands of cli_export, at both input
sizes.  They were recorded on the seed commit; recording them again makes
the check compare the program with itself, so do it only when a change is
meant to alter those outputs, and say so.
"""

import json
import sys

import cli_export
import orbit_exact
from common import DIGESTS, canonical_wire, child_env, load_drplane, run_cli, sha, trace_digest


def main() -> int:
    dp = load_drplane()
    out = {}
    for size, sz in orbit_exact.SIZES.items():
        for name in orbit_exact.CANONICAL:
            p = dp.problems.problem_from_dict(canonical_wire(name))
            H = sz["surd_h"] if p.backend == "surd" else sz["rat_h"]
            for slim in (False, True):
                run = dp.dynamics.iterate(p.hyperplane, p.points, p.x0, H, slim=slim)
                out[f"orbit:{name}:{size}:{'slim' if slim else 'full'}"] = trace_digest(run)
        for argv, rc in cli_export.canonical_commands(size):
            proc = run_cli(argv, child_env())
            if proc.returncode != rc:
                print(f"{argv}: exit {proc.returncode}, want {rc}", file=sys.stderr)
                return 1
            out["cli:" + " ".join(argv)] = sha(proc.stdout)
    with open(DIGESTS, "w", encoding="utf-8") as fp:
        json.dump(out, fp, indent=1, sort_keys=True)
        fp.write("\n")
    print(f"{len(out)} digests written to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
