"""Tests for the domain-aware static linter (PRV001-PRV010)."""

import textwrap
from pathlib import Path

import pytest

from repro.analysis.lint import (
    RULES,
    RULES_BY_CODE,
    lint_paths,
    lint_source,
)

SRC_ROOT = Path(__file__).resolve().parent.parent.parent / "src" / "repro"


def codes(source, path="repro/somewhere/module.py"):
    """Lint a dedented snippet and return the finding codes."""
    findings = lint_source(textwrap.dedent(source), path)
    return [f.code for f in findings]


class TestRuleTable:
    def test_fourteen_rules_with_unique_codes(self):
        assert len(RULES) == 14
        assert len(RULES_BY_CODE) == 14
        assert sorted(RULES_BY_CODE) == (
            ["PRV000"]
            + [f"PRV00{i}" for i in range(1, 10)]
            + ["PRV010", "PRV011", "PRV012", "PRV013"]
        )

    def test_every_rule_has_a_hint(self):
        for rule in RULES:
            assert rule.hint
            assert rule.summary


class TestUnseededRng:
    def test_stdlib_random_call_flagged(self):
        source = """\
        __all__ = []
        import random
        x = random.random()
        """
        assert codes(source).count("PRV001") == 2  # import + call

    def test_from_random_import_flagged(self):
        source = """\
        __all__ = []
        from random import shuffle
        shuffle([1, 2])
        """
        assert "PRV001" in codes(source)

    def test_np_random_global_call_flagged(self):
        source = """\
        __all__ = []
        import numpy as np
        x = np.random.rand(3)
        """
        assert codes(source) == ["PRV001"]

    def test_seeded_default_rng_allowed(self):
        source = """\
        __all__ = []
        import numpy as np
        rng = np.random.default_rng(42)
        x = rng.random()
        """
        assert codes(source) == []

    def test_rng_module_exempt(self):
        source = """\
        __all__ = []
        import random
        x = random.random()
        """
        assert codes(source, "src/repro/util/rng.py") == []


class TestFloatEquality:
    def test_float_literal_comparison_flagged(self):
        assert "PRV002" in codes("__all__ = []\nok = x == 1.0\n")

    def test_utilization_name_comparison_flagged(self):
        assert "PRV002" in codes(
            "__all__ = []\nok = utilization != other\n"
        )

    def test_division_comparison_flagged(self):
        assert "PRV002" in codes("__all__ = []\nok = (a / b) == c\n")

    def test_int_comparison_not_flagged(self):
        assert codes("__all__ = []\nok = used == capacity_units\n") == []

    def test_inequality_guards_not_flagged(self):
        assert codes("__all__ = []\nok = fraction <= 0.0\n") == []


class TestUnorderedIteration:
    def test_set_call_iteration_flagged(self):
        assert "PRV003" in codes(
            "__all__ = []\nfor x in set(items):\n    pass\n"
        )

    def test_set_literal_comprehension_flagged(self):
        assert "PRV003" in codes(
            "__all__ = []\nys = [y for y in {1, 2, 3}]\n"
        )

    def test_set_union_flagged(self):
        assert "PRV003" in codes(
            "__all__ = []\nfor x in set(a) | set(b):\n    pass\n"
        )

    def test_sorted_set_not_flagged(self):
        assert codes(
            "__all__ = []\nfor x in sorted(set(items)):\n    pass\n"
        ) == []

    def test_list_iteration_not_flagged(self):
        assert codes("__all__ = []\nfor x in [1, 2]:\n    pass\n") == []


class TestMutableDefault:
    def test_list_default_flagged(self):
        assert "PRV004" in codes(
            "__all__ = []\ndef f(xs=[]):\n    return xs\n"
        )

    def test_dict_call_default_flagged(self):
        assert "PRV004" in codes(
            "__all__ = []\ndef f(xs=dict()):\n    return xs\n"
        )

    def test_none_default_not_flagged(self):
        assert codes("__all__ = []\ndef f(xs=None):\n    return xs\n") == []


class TestImmutableMutation:
    def test_graph_attribute_assignment_flagged(self):
        assert "PRV005" in codes(
            "__all__ = []\ngraph.profiles = []\n"
        )

    def test_table_internals_item_assignment_flagged(self):
        assert "PRV005" in codes(
            "__all__ = []\ntable._scores[usage] = 1.0\n"
        )

    def test_graph_list_append_flagged(self):
        assert "PRV005" in codes(
            "__all__ = []\nself._graph.successors.append(())\n"
        )

    def test_building_a_dict_of_tables_not_flagged(self):
        # `tables[shape] = table` builds a mapping; it does not mutate
        # a ScoreTable object.
        assert codes("__all__ = []\ntables[shape] = table\n") == []

    def test_defining_module_exempt(self):
        assert codes(
            "__all__ = []\ngraph.profiles = []\n",
            "src/repro/core/graph.py",
        ) == []


class TestBareExcept:
    def test_bare_except_flagged(self):
        source = """\
        __all__ = []
        try:
            x = 1
        except:
            pass
        """
        assert "PRV006" in codes(source)

    def test_typed_except_not_flagged(self):
        source = """\
        __all__ = []
        try:
            x = 1
        except ValueError:
            pass
        """
        assert codes(source) == []


class TestMissingAll:
    def test_module_without_all_flagged(self):
        assert codes("def f():\n    return 1\n") == ["PRV007"]

    def test_module_with_all_clean(self):
        assert codes("__all__ = ['f']\ndef f():\n    return 1\n") == []

    def test_main_module_exempt(self):
        assert codes("x = 1\n", "src/repro/__main__.py") == []


class TestMissingSlots:
    HOT = "src/repro/cluster/machine.py"

    def test_plain_class_in_hot_module_flagged(self):
        assert "PRV008" in codes(
            "__all__ = []\nclass Thing:\n    def __init__(self):\n"
            "        self.x = 1\n",
            self.HOT,
        )

    def test_class_with_slots_clean(self):
        assert codes(
            "__all__ = []\nclass Thing:\n    __slots__ = ('x',)\n",
            self.HOT,
        ) == []

    def test_dataclass_exempt(self):
        source = """\
        __all__ = []
        from dataclasses import dataclass

        @dataclass
        class Thing:
            x: int
        """
        assert codes(source, self.HOT) == []

    def test_exception_exempt(self):
        assert codes(
            "__all__ = []\nclass Boom(RuntimeError):\n    pass\n",
            self.HOT,
        ) == []

    def test_cold_module_not_flagged(self):
        assert codes(
            "__all__ = []\nclass Thing:\n    pass\n",
            "src/repro/experiments/report.py",
        ) == []


class TestWallClock:
    SIM = "src/repro/cluster/simulation.py"
    FAULTS = "src/repro/faults/schedule.py"
    TESTBED = "src/repro/testbed/controller.py"

    def test_time_sleep_in_cluster_flagged(self):
        source = "__all__ = []\nimport time\ntime.sleep(1.0)\n"
        assert codes(source, self.SIM) == ["PRV009"]

    def test_time_read_in_faults_flagged(self):
        source = "__all__ = []\nimport time\nt = time.monotonic()\n"
        assert codes(source, self.FAULTS) == ["PRV009"]

    def test_aliased_time_import_flagged(self):
        source = "__all__ = []\nimport time as t\nnow = t.time()\n"
        assert codes(source, self.TESTBED) == ["PRV009"]

    def test_from_time_import_sleep_flagged(self):
        source = "__all__ = []\nfrom time import sleep\nsleep(0.1)\n"
        assert codes(source, self.SIM) == ["PRV009"]

    def test_datetime_now_flagged(self):
        source = (
            "__all__ = []\nfrom datetime import datetime\n"
            "stamp = datetime.now()\n"
        )
        assert codes(source, self.SIM) == ["PRV009"]

    def test_datetime_module_utcnow_flagged(self):
        source = (
            "__all__ = []\nimport datetime\n"
            "stamp = datetime.datetime.utcnow()\n"
        )
        assert codes(source, self.FAULTS) == ["PRV009"]

    def test_ns_variant_flagged(self):
        source = "__all__ = []\nimport time\nt = time.perf_counter_ns()\n"
        assert codes(source, self.SIM) == ["PRV009"]

    def test_runner_backoff_sleep_not_flagged(self):
        # The experiment runner's retry backoff legitimately sleeps on
        # the wall clock — it is outside the simulated-time scope.
        source = "__all__ = []\nimport time\ntime.sleep(0.5)\n"
        assert codes(source, "src/repro/experiments/runner.py") == []

    def test_simulated_time_s_parameter_not_flagged(self):
        # Passing `time_s` around (the simulated clock) must not trip
        # the rule; only the stdlib wall-clock calls do.
        source = (
            "__all__ = []\n"
            "def tick(time_s):\n"
            "    return time_s + 1.0\n"
        )
        assert codes(source, self.SIM) == []

    def test_unrelated_sleep_method_not_flagged(self):
        # A method *named* sleep on some other object is fine.
        source = "__all__ = []\nmachine.sleep(5)\n"
        assert codes(source, self.SIM) == []

    def test_suppression_works_for_prv009(self):
        source = (
            "__all__ = []\nimport time\n"
            "t = time.time()  # prv: disable=PRV009 -- log stamp only\n"
        )
        assert codes(source, self.SIM) == []


class TestSuppression:
    def test_disable_comment_suppresses(self):
        assert codes(
            "__all__ = []\nok = x == 1.0  # prv: disable=PRV002\n"
        ) == []

    def test_justification_after_dashes_accepted(self):
        assert codes(
            "__all__ = []\n"
            "ok = x == 1.0  # prv: disable=PRV002 -- exact by contract\n"
        ) == []

    def test_multiple_codes(self):
        source = (
            "__all__ = []\n"
            "for x in set(a == 1.0 for a in xs):  "
            "# prv: disable=PRV002,PRV003\n"
            "    pass\n"
        )
        assert codes(source) == []

    def test_wrong_code_does_not_suppress(self):
        # The finding survives, and the wrong-code suppression is
        # itself reported as stale (PRV000).
        assert codes(
            "__all__ = []\nok = x == 1.0  # prv: disable=PRV003\n"
        ) == ["PRV000", "PRV002"]

    def test_marker_inside_string_is_inert(self):
        source = (
            "__all__ = []\n"
            'text = "# prv: disable=PRV002"\n'
            "ok = x == 1.0\n"
        )
        assert codes(source) == ["PRV002"]


class TestMachineScanInTickPath:
    SIM = "src/repro/cluster/simulation.py"

    def test_full_inventory_read_in_tick_flagged(self):
        source = """\
        __all__ = []
        class Sim:
            def _on_tick(self, time_s, dt_s):
                for machine in self._dc.machines:
                    machine.ping()
        """
        assert codes(source, self.SIM) == ["PRV010"]

    def test_private_inventory_attribute_flagged(self):
        source = """\
        __all__ = []
        class Sim:
            def _healthy(self):
                return [m for m in self.datacenter._machines]
        """
        assert codes(source, self.SIM) == ["PRV010"]

    def test_nested_helper_inside_tick_flagged(self):
        source = """\
        __all__ = []
        class Sim:
            def _on_tick(self, time_s, dt_s):
                def count():
                    return len(self._dc.machines)
                return count()
        """
        assert codes(source, self.SIM) == ["PRV010"]

    def test_index_backed_accessors_clean(self):
        source = """\
        __all__ = []
        class Sim:
            def _on_tick(self, time_s, dt_s):
                for machine in self._dc.used_machines():
                    machine.ping()
                return self._dc.indexed_machines()
        """
        assert codes(source, self.SIM) == []

    def test_non_datacenter_base_clean(self):
        source = """\
        __all__ = []
        class Sim:
            def _tick_columnar(self, frame, dt_s):
                return frame.machines[0]
        """
        assert codes(source, self.SIM) == []

    def test_inventory_read_in_columnar_tick_flagged(self):
        source = """\
        __all__ = []
        class Sim:
            def _tick_columnar(self, time_s, dt_s):
                return len(self._dc.machines)
        """
        assert codes(source, self.SIM) == ["PRV010"]

    def test_outside_tick_path_clean(self):
        source = """\
        __all__ = []
        class Sim:
            def summarize(self):
                return len(self._dc.machines)
        """
        assert codes(source, self.SIM) == []

    def test_outside_cluster_package_clean(self):
        source = """\
        __all__ = []
        class Runner:
            def _on_tick(self, time_s, dt_s):
                return len(self._dc.machines)
        """
        assert codes(source, "src/repro/experiments/runner.py") == []

    def test_suppression_honored(self):
        source = (
            "__all__ = []\n"
            "class Sim:\n"
            "    def _on_tick(self, time_s, dt_s):\n"
            "        return self._dc.machines  "
            "# prv: disable=PRV010 -- baseline path kept for benchmarks\n"
        )
        assert codes(source, self.SIM) == []


class TestPaths:
    def test_lint_paths_walks_directories(self, tmp_path):
        package = tmp_path / "pkg"
        package.mkdir()
        (package / "good.py").write_text("__all__ = []\nx = 1\n")
        (package / "bad.py").write_text(
            "__all__ = []\ntry:\n    x = 1\nexcept:\n    pass\n"
        )
        findings = lint_paths([package])
        assert [f.code for f in findings] == ["PRV006"]
        assert findings[0].path.endswith("bad.py")
        assert "bad.py:4:" in findings[0].render()

    def test_single_file_accepted(self, tmp_path):
        file = tmp_path / "one.py"
        file.write_text("def f():\n    pass\n")
        assert [f.code for f in lint_paths([file])] == ["PRV007"]


class TestAcceptance:
    def test_src_repro_lints_clean(self):
        """The merged tree must carry zero unsuppressed findings."""
        findings = lint_paths([SRC_ROOT])
        assert findings == [], "\n".join(f.render() for f in findings)
