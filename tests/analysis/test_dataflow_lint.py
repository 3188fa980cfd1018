"""Tests for the dataflow lint rules (PRV011–PRV013) and renderers.

Fixtures model the shapes in :mod:`repro.core.usage_index`: an index
module defining ``SoAClassTable`` / ``UsageClassIndex`` (and a subclass,
so the rules must see through inheritance), an owner module constructing
them, and consumer modules reaching in from outside.  The
real ``src/repro`` tree is the documented negative: it must lint clean
with the cross-module table active.
"""

import textwrap
from pathlib import Path

from repro.analysis.dataflow import (
    build_symbol_table,
    dataflow_findings,
)
from repro.analysis.lint import lint_paths, lint_source
from repro.analysis.sarif import render_json, render_sarif

SRC_ROOT = Path(__file__).resolve().parent.parent.parent / "src" / "repro"

#: A minimal stand-in for repro/core/usage_index.py: defines the indexed
#: structures the rules protect.
INDEX_MODULE = textwrap.dedent(
    '''
    __all__ = []

    class SoAClassTable:
        def __init__(self) -> None:
            self._rep = []
            self._size = []

        def update(self, key, members):
            return 0

    class UsageClassIndex:
        def __init__(self, machines) -> None:
            self.table = SoAClassTable()
            self.class_ids = []
            self.epoch = 0

        def refresh(self, pm_id: int) -> None:
            pass

        def rebuild(self) -> None:
            self.epoch += 1

    class TunedIndex(UsageClassIndex):
        pass
    '''
)


def flow_codes(source, path="repro/cluster/consumer.py", extra=()):
    """Dataflow findings for a snippet, with the index module (and any
    extra modules) contributing to the symbol table."""
    modules = [("repro/core/usage_index.py", INDEX_MODULE)]
    modules.extend(extra)
    source = textwrap.dedent(source)
    modules.append((path, source))
    table = build_symbol_table(modules)
    return [f.code for f in dataflow_findings(source, path, table)]


class TestPRV011:
    def test_store_into_index_state_flagged(self):
        assert flow_codes(
            """
            def poke(index: TunedIndex) -> None:
                index.class_ids[3] = -1
            """
        ) == ["PRV011"]

    def test_mutator_call_through_the_table_flagged(self):
        assert flow_codes(
            """
            def poke(index: TunedIndex, class_id, pos) -> None:
                index.table.add(class_id, pos)
            """
        ) == ["PRV011"]

    def test_interning_through_the_table_flagged(self):
        assert flow_codes(
            """
            def poke(index: TunedIndex, key) -> int:
                return index.table.intern(key)
            """
        ) == ["PRV011"]

    def test_attribute_overwrite_flagged(self):
        assert flow_codes(
            """
            def reset(table: SoAClassTable) -> None:
                table._rep = []
            """
        ) == ["PRV011"]

    def test_epoch_bump_in_same_function_sanctions(self):
        # The skipped-epoch-bump bug, fixed: calling rebuild()/refresh()
        # in the mutating function re-derives the canonical state.
        assert flow_codes(
            """
            def repack(index: UsageClassIndex, class_id, pos) -> None:
                index.table.remove(class_id, pos)
                index.rebuild()
            """
        ) == []

    def test_constructing_module_is_an_owner(self):
        assert flow_codes(
            """
            class Datacenter:
                def __init__(self, machines) -> None:
                    self._index = UsageClassIndex(machines)

                def place(self, pos: int) -> None:
                    self._index.class_ids[pos] = 7
            """
        ) == []

    def test_methods_of_the_structure_itself_are_sanctioned(self):
        assert flow_codes(
            """
            class FastIndex(UsageClassIndex):
                def tweak(self, pos: int) -> None:
                    self.class_ids[pos] = -1
            """
        ) == []

    def test_reads_are_not_mutations(self):
        assert flow_codes(
            """
            def peek(index: UsageClassIndex) -> int:
                return index.class_ids[0]
            """
        ) == []

    def test_untyped_objects_are_not_flagged(self):
        assert flow_codes(
            """
            def fill(mapping) -> None:
                mapping.update({1: 2})
                mapping[3] = 4
            """
        ) == []


#: Stand-in for repro/core/soa/columns.py: the fleet's column storage.
COLUMNS_MODULE = textwrap.dedent(
    '''
    __all__ = []

    class FleetColumns:
        def __init__(self, n: int, max_dims: int) -> None:
            self.n = n
            self.usage = []
    '''
)

#: Stand-in for repro/core/soa/datacenter.py: the owner of the columns.
SOA_DC_SOURCE = """
class SoADatacenter:
    def __init__(self, n: int) -> None:
        self._cols = FleetColumns(n, 4)

    @property
    def columns(self) -> FleetColumns:
        return self._cols

    def place(self, pos: int) -> None:
        self._cols.usage[pos, 0] += 1
"""


class TestPRV011FleetColumns:
    def codes(self, source, path, extra=()):
        return flow_codes(
            source, path=path,
            extra=[("repro/core/soa/columns.py", COLUMNS_MODULE), *extra],
        )

    def test_mutation_through_the_columns_property_flagged(self):
        assert self.codes(
            """
            def corrupt(dc: SoADatacenter) -> None:
                dc.columns.usage[0, 0] = 7
            """,
            path="repro/cluster/consumer.py",
            extra=[("repro/core/soa/datacenter.py", SOA_DC_SOURCE)],
        ) == ["PRV011"]

    def test_owning_datacenter_module_is_sanctioned(self):
        assert self.codes(
            SOA_DC_SOURCE, path="repro/core/soa/datacenter.py"
        ) == []


RNG_MODULE = textwrap.dedent(
    '''
    __all__ = []

    class RngFactory:
        def generator(self, *labels):
            return None

    def sample(rng, count: int):
        return count

    def consume(data, count: int):
        return count
    '''
)


class TestPRV012:
    def rng_codes(self, source, path="repro/experiments/consumer.py"):
        return flow_codes(
            source, path=path,
            extra=[("repro/util/helpers.py", RNG_MODULE)],
        )

    def test_attribute_store_flagged(self):
        assert self.rng_codes(
            """
            class Runner:
                def setup(self, rngs: RngFactory) -> None:
                    self._rng = rngs.generator("setup")
            """
        ) == ["PRV012"]

    def test_module_scope_bind_flagged(self):
        assert self.rng_codes(
            """
            factory = RngFactory()
            SHARED = factory.generator("global")
            """
        ) == ["PRV012"]

    def test_closure_capture_flagged(self):
        assert self.rng_codes(
            """
            def build(rngs: RngFactory):
                rng = rngs.generator("jobs")

                def job():
                    return rng.random()

                return job
            """
        ) == ["PRV012"]

    def test_pass_to_non_rng_parameter_flagged(self):
        assert self.rng_codes(
            """
            def run(rngs: RngFactory) -> None:
                consume(rngs.generator("x"), 3)
            """
        ) == ["PRV012"]

    def test_keyword_pass_to_non_rng_parameter_flagged(self):
        assert self.rng_codes(
            """
            def run(rngs: RngFactory) -> None:
                consume(data=rngs.generator("x"), count=3)
            """
        ) == ["PRV012"]

    def test_rng_named_parameter_is_custody(self):
        # The codebase idiom: sample_vm_types(rngs.generator(...), n).
        assert self.rng_codes(
            """
            def run(rngs: RngFactory) -> None:
                sample(rngs.generator("vm-types"), 5)
            """
        ) == []

    def test_local_draw_and_use_is_clean(self):
        assert self.rng_codes(
            """
            def run(rngs: RngFactory) -> float:
                rng = rngs.generator("draws")
                return float(rng.random())
            """
        ) == []

    def test_unresolvable_callee_is_not_guessed(self):
        assert self.rng_codes(
            """
            def run(rngs: RngFactory, sink) -> None:
                sink(rngs.generator("x"))
            """
        ) == []

    def test_rng_module_itself_is_exempt(self):
        assert self.rng_codes(
            """
            class RngFactory2(RngFactory):
                def cache(self) -> None:
                    self._root = self.generator("root")
            """,
            path="src/repro/util/rng.py",
        ) == []


class TestPRV013:
    def test_augadd_in_set_loop_flagged(self):
        assert flow_codes(
            """
            def total(machines) -> float:
                total_energy = 0.0
                for m in set(machines):
                    total_energy += m.watts
                return total_energy
            """
        ) == ["PRV013"]

    def test_sum_over_set_comprehension_flagged(self):
        assert flow_codes(
            """
            def mean_util(machines) -> float:
                return sum(m.util for m in {m for m in machines})
            """
        ) == ["PRV013"]

    def test_completion_order_producer_flagged(self):
        assert flow_codes(
            """
            def collect(futures) -> float:
                joules = 0.0
                for f in as_completed(futures):
                    joules += f.result()
                return joules
            """
        ) == ["PRV013"]

    def test_sorted_wrapper_restores_order(self):
        assert flow_codes(
            """
            def total(machines) -> float:
                total_energy = 0.0
                for m in sorted(set(machines)):
                    total_energy += m.watts
                return total_energy
            """
        ) == []

    def test_fsum_is_order_insensitive(self):
        assert flow_codes(
            """
            import math

            def total(values) -> float:
                return math.fsum(set(values))
            """
        ) == []

    def test_integer_counting_is_not_a_float_fold(self):
        assert flow_codes(
            """
            def count(machines) -> int:
                n = 0
                for m in set(machines):
                    n += 1
                return n
            """
        ) == []

    def test_list_iteration_is_ordered(self):
        assert flow_codes(
            """
            def total(machines) -> float:
                total_energy = 0.0
                for m in machines:
                    total_energy += m.watts
                return total_energy
            """
        ) == []


class TestShippedTreeIsClean:
    def test_soa_package_documented_negative(self):
        """The real SoA core mutates its structures only on sanctioned
        paths; with the cross-module table built over core+cluster, the
        dataflow rules stay silent."""
        findings = lint_paths([
            SRC_ROOT / "core", SRC_ROOT / "cluster", SRC_ROOT / "util",
        ])
        flow = [
            f for f in findings
            if f.code in ("PRV011", "PRV012", "PRV013")
        ]
        assert flow == [f for f in flow if False], [
            f.render() for f in flow
        ]

    def test_whole_tree_has_no_unsuppressed_findings(self):
        findings = lint_paths([SRC_ROOT])
        assert findings == [], [f.render() for f in findings]


class TestRenderers:
    def sample_findings(self):
        return lint_source(
            "import random\nok = x == 1.0  # prv: disable=PRV003\n",
            "repro/pkg/mod.py",
        )

    def test_json_round_trips(self):
        import json

        findings = self.sample_findings()
        payload = json.loads(render_json(findings))
        assert len(payload) == len(findings) > 0
        assert {entry["code"] for entry in payload} >= {
            "PRV001", "PRV002", "PRV000",
        }
        assert all(
            set(entry) == {
                "path", "line", "col", "code", "rule", "message", "hint",
            }
            for entry in payload
        )

    def test_sarif_shape_and_levels(self):
        import json

        log = json.loads(render_sarif(self.sample_findings()))
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        rules = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"PRV000", "PRV001", "PRV011", "PRV012", "PRV013"} <= rules
        levels = {
            result["ruleId"]: result["level"] for result in run["results"]
        }
        assert levels["PRV001"] == "error"
        assert levels["PRV000"] == "note"
        location = run["results"][0]["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "repro/pkg/mod.py"
        assert location["region"]["startLine"] >= 1
        assert location["region"]["startColumn"] >= 1

    def test_sarif_empty_run_is_valid(self):
        import json

        log = json.loads(render_sarif([]))
        assert log["runs"][0]["results"] == []
