"""Record the reference report digest of every case the cli-scenarios
workload can run.

    python3 perfbench/record_digests.py

Runs every command on the shipped scenarios and on every value variant
of each generated scenario, and writes perfbench/digests.json.  Run it
only at a commit whose reports are the reference: the benchmark fails
any case whose report differs from the digest recorded here.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from jacobi_bfv import cli  # noqa: E402
import workloads  # noqa: E402


def main():
    workdir = os.path.join(HERE, "out", "record")
    os.makedirs(workdir, exist_ok=True)
    scenarios = [s for s in workloads.cli_scenarios(0) if s[2] is None]
    for params in workloads.CLI_GENERATED:
        for v in range(workloads.CLI_VARIANTS):
            scenarios.append(workloads.generated_scenario(params, v))
    digests = {}
    for name, path, doc, _ in scenarios:
        if doc is not None:
            path = workloads.write_scenario(workdir, name, doc)
        for command in cli.COMMANDS:
            code, digest = workloads.report_digest(
                workloads.run_cli(cli, path, command))
            digests["%s/%s" % (name, command)] = digest
            print("%-24s %-10s exit %d" % (name, command, code),
                  file=sys.stderr)
    with open(workloads.DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
