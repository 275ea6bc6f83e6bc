"""End-to-end service smoke: ingest -> serve -> assert -> tear down.

CI's tier-1 leg (and ``make serve-smoke``) runs this: backfill the
checked-in benchmark history into a scratch repository, start the
dashboard on an ephemeral port, hit ``/runs`` and ``/compare`` (plus the
rest of the JSON surface) with urllib, and verify the payloads describe
the ingested data.  Exits nonzero on any mismatch.
"""

import json
import os
import sys
import tempfile
import urllib.error
import urllib.request

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.service import RunRepository  # noqa: E402
from repro.service.ingest import backfill  # noqa: E402
from repro.service.server import DashboardServer  # noqa: E402


def get(base, path):
    with urllib.request.urlopen(base + path, timeout=30) as resp:
        assert resp.status == 200, "%s -> %d" % (path, resp.status)
        return resp.read()


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        repo = RunRepository(os.path.join(tmp, "runs.sqlite"))
        totals = backfill(repo, [os.path.join(ROOT, "benchmarks"),
                                 os.path.join(ROOT, "tests", "golden")])
        assert totals["records"] > 0, "backfill ingested nothing"
        print("ingested %(records)d record(s) from %(files)d file(s)"
              % totals)

        server = DashboardServer(repo, port=0).start()
        try:
            base = server.url
            print("serving on %s" % base)

            runs = json.loads(get(base, "/runs"))["runs"]
            assert len(runs) == repo.counts()["runs"], \
                "/runs disagrees with the repository"
            kinds = {r["kind"] for r in runs}
            assert {"simrate", "qos", "run"} <= kinds, \
                "expected all ingested kinds in /runs, got %s" % kinds

            groups = json.loads(get(base, "/compare"))["groups"]
            assert groups, "/compare produced no trend groups"
            assert all(g["runs"] and "best_instructions_per_second" in g
                       for g in groups)

            detail = json.loads(get(base, "/runs/%d" % runs[0]["id"]))
            assert detail["id"] == runs[0]["id"]

            summary = json.loads(get(base, "/summary"))
            assert summary["runs"] == len(runs)

            try:
                get(base, "/queue")
                raise AssertionError("/queue should be gone")
            except urllib.error.HTTPError as err:
                assert err.code == 404, "/queue -> %d" % err.code

            html = get(base, "/").decode("utf-8")
            assert "Sim-rate trend" in html and "Kernel timeline" in html

            print("serve smoke OK: %d run(s), %d trend group(s)"
                  % (len(runs), len(groups)))
        finally:
            server.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
