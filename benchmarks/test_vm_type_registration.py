"""Registering a VM type on the paper's M3 fleet equals a fresh build.

EC2-scale twin of ``tests/serve/test_fleet_delta.py``'s registration
contract, too slow for the unit suite (three M3 table builds, about 10 s
on two cores).  A 32-PM M3 service registers c3.2xlarge, a C3-family
type outside Table I that grows the M3 graph by tens of thousands of
profiles.  Afterwards the served table must equal a cold build of the
grown catalog bit for bit, in row order, and a fixed request stream
must give the decision digest of a service built fresh with that
catalog.
"""

from repro.cluster.ec2 import (
    CPU_QUANTUM_GHZ,
    DISK_QUANTUM_GB,
    EC2_VM_TYPES,
    MEM_QUANTUM_GIB,
    build_ec2_soa_datacenter,
    ec2_pm_shape,
)
from repro.core.graph import SuccessorStrategy
from repro.core.placement import PageRankVMPolicy
from repro.core.profile import Quantizer, VMType
from repro.core.score_table import build_score_table
from repro.serve.fleet import build_ec2_service, swap_catalog
from repro.serve.service import PlacementService, ServeRequest
from repro.util.rng import RngFactory

N_PMS = 32
N_REQUESTS = 128


def c3_2xlarge() -> VMType:
    """c3.2xlarge: 8 vCPUs at 0.7 GHz, 15 GiB, 2 x 80 GB disks."""
    cpu = Quantizer(CPU_QUANTUM_GHZ).to_units(0.7)
    return VMType(
        name="c3.2xlarge",
        demands=(
            (cpu,) * 8,
            (Quantizer(MEM_QUANTUM_GIB).to_units(15.0),),
            (Quantizer(DISK_QUANTUM_GB).to_units(80.0),) * 2,
        ),
    )


def request_stream(names):
    rng = RngFactory(7).generator("registration", "mix")
    return [
        ServeRequest(
            op="place",
            request_id=i,
            vm_type=names[int(rng.integers(len(names)))],
            utilization=float(rng.uniform(0.05, 0.48)),
        )
        for i in range(N_REQUESTS)
    ]


def test_c3_registration_equals_a_fresh_m3_service(tmp_path, monkeypatch):
    shape = ec2_pm_shape("M3")
    grown = tuple(EC2_VM_TYPES) + (c3_2xlarge(),)
    monkeypatch.setenv("REPRO_TABLE_CACHE", str(tmp_path))
    registered = build_ec2_service(counts={"M3": N_PMS}, seed=0)
    base_rows = len(registered.policy.tables[shape])
    swap_catalog(
        registered, tuple(registered.vm_type_catalog) + (c3_2xlarge(),)
    )
    # The reference is built without the graph cache: a true cold build.
    monkeypatch.delenv("REPRO_TABLE_CACHE")
    cold = build_score_table(
        shape, grown, strategy=SuccessorStrategy.BALANCED
    )
    served = registered.policy.tables[shape]
    print(f"\nc3.2xlarge registration: {base_rows} -> {len(served)} rows")
    assert len(served) > base_rows
    assert list(served.items()) == list(cold.items())

    fresh = PlacementService(
        build_ec2_soa_datacenter({"M3": N_PMS}),
        PageRankVMPolicy(
            {shape: cold}, rng=RngFactory(0).generator("serve-policy")
        ),
        grown,
        seed=0,
    )
    names = [vm.name for vm in grown]
    try:
        registered.serve_batch(request_stream(names))
        fresh.serve_batch(request_stream(names))
        assert registered.counters.as_dict()["placed"] > 0
        assert registered.decision_digest == fresh.decision_digest
    finally:
        registered.close()
        fresh.close()
