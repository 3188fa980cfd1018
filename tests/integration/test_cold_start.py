"""The production paths start without scipy.

A fleet day and the placement service rank the profile graph and serve
Algorithm 2 from numpy alone; scipy loads only when a score table snaps
an off-graph profile (its KD-tree).  Each case runs in a fresh
interpreter, since this suite's own process has long imported scipy.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: Fails every import of scipy or one of its modules.
BLOCK_SCIPY = """
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"blocked: {name}")
        return None

sys.meta_path.insert(0, BlockScipy())
"""


def run_fresh(code: str, block_scipy: bool = False) -> str:
    """Run ``code`` in a new interpreter on this checkout, after
    :data:`BLOCK_SCIPY` when ``block_scipy``; its stdout."""
    env = {
        key: value for key, value in os.environ.items()
        if key != "REPRO_TABLE_CACHE"
    }
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH")))
    )
    done = subprocess.run(
        [
            sys.executable, "-c",
            (BLOCK_SCIPY if block_scipy else "") + textwrap.dedent(code),
        ],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestNoScipyAtStart:
    def test_fleet_day_and_serving_run_with_scipy_blocked(self):
        out = run_fresh("""
        import sys

        from repro.experiments.sweep import run_point, sweep_table
        from repro.serve.app import build_app
        from repro.serve.fleet import build_ec2_service
        from repro.serve.testclient import ASGITestClient

        point = run_point(sweep_table(), 40, duration_s=3_600.0)
        assert point["n_pms"] == 40, point

        client = ASGITestClient(build_app(build_ec2_service({"M3": 40})))
        for vm_type in ("m3.medium", "m3.xlarge", "m3.2xlarge") * 2:
            response = client.post("/place", {"vm_type": vm_type})
            assert response.status == 200, response.json()
            assert response.json()["outcome"] == "placed"
        assert not any(
            name == "scipy" or name.startswith("scipy.")
            for name in sys.modules
        )
        print("ok")
        """, block_scipy=True)
        assert out.split() == ["ok"]

    def test_off_graph_snap_loads_the_kd_tree_then(self):
        out = run_fresh("""
        import sys

        from repro.core.profile import MachineShape, ResourceGroup, VMType
        from repro.core.score_table import build_score_table

        shape = MachineShape(
            groups=(ResourceGroup(name="cpu", capacities=(4, 4, 4, 4)),)
        )
        vm4 = VMType(name="vm4", demands=((1, 1, 1, 1),))
        table = build_score_table(shape, (vm4,), mode="reachable")
        missing = ((1, 0, 0, 0),)
        assert table.score(missing) is None
        assert "scipy" not in sys.modules
        # (0,0,0,0) is the one known profile at L1 distance 1.
        assert table.score_or_snap(missing) == table.score(((0, 0, 0, 0),))
        assert "scipy.spatial" in sys.modules
        print("ok")
        """)
        assert out.split() == ["ok"]
