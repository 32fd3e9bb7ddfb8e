"""Property-based invariants of the fluid simulator.

Three properties the whole reproduction leans on:

* **byte conservation** — a flow of S bytes finishes exactly when S bytes
  of capacity-time have been delivered to it, no matter how the sharing
  pattern evolved;
* **determinism** — the same scenario replays to the identical schedule
  (the experiments rely on seeded reproducibility);
* **feasibility over time** — at no recompute does any link exceed its
  capacity.

Every replay also runs under the :class:`~tests.engine_oracle.
OracleObserver`, so each recomputed allocation is checked against
:func:`~repro.netsim.fairness.progressive_filling` and each completion
against the flow's size.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim.engine import FlowSimulator
from repro.netsim.topology import Topology
from tests.engine_oracle import OracleObserver


def grid_topology(num_links, caps):
    topo = Topology()
    topo.add_node("n0")
    for i in range(num_links):
        topo.add_node(f"n{i + 1}")
        topo.add_link(f"n{i}", f"n{i + 1}", caps[i])
    return topo


@st.composite
def scenario(draw):
    num_links = draw(st.integers(1, 4))
    caps = [draw(st.floats(1.0, 50.0)) for _ in range(num_links)]
    flows = []
    for _ in range(draw(st.integers(1, 8))):
        start = draw(st.integers(0, num_links - 1))
        end = draw(st.integers(start + 1, num_links))
        flows.append(
            {
                "size": draw(st.floats(1.0, 200.0)),
                "path": [f"n{i}->n{i + 1}" for i in range(start, end)],
                "at": draw(st.floats(0.0, 5.0)),
                "weight": draw(st.floats(0.5, 3.0)),
            }
        )
    return num_links, caps, flows


def replay(num_links, caps, flow_specs, audit=None):
    sim = FlowSimulator(grid_topology(num_links, caps))
    # Arbitrary float capacities and weights: the reference may differ
    # from the engine in the last bit.
    oracle = OracleObserver(sim, rel=1e-9)
    sim.add_observer(oracle)
    record = []
    flows = []
    for spec in flow_specs:
        def add(spec=spec):
            flow = sim.add_flow(
                spec["size"],
                spec["path"],
                weight=spec["weight"],
                on_complete=lambda f, t: record.append((f.size, round(t, 9))),
            )
            flows.append((flow, spec))

        sim.schedule(spec["at"], add)
    if audit is not None:
        original = sim._ensure_rates

        def audited():
            original()
            audit(sim)

        sim._ensure_rates = audited
    end = sim.run()
    assert oracle.completions == len(flow_specs)
    return end, record, flows


@given(scenario())
@settings(max_examples=60, deadline=None)
def test_byte_conservation(sc):
    """Every flow's delivered bytes equal its size: completion time is at
    least arrival + size/bottleneck and all flows complete."""
    num_links, caps, specs = sc
    end, record, flows = replay(num_links, caps, specs)
    assert len(record) == len(specs)
    for flow, spec in flows:
        assert flow.completed
        assert flow.remaining == pytest.approx(0.0, abs=1e-6)
        bottleneck = min(caps[int(l[1 : l.index("-")])] for l in spec["path"])
        min_time = spec["size"] / bottleneck
        assert flow.fct() >= min_time * (1 - 1e-9)


@given(scenario())
@settings(max_examples=40, deadline=None)
def test_determinism(sc):
    num_links, caps, specs = sc
    end1, record1, _ = replay(num_links, caps, specs)
    end2, record2, _ = replay(num_links, caps, specs)
    assert end1 == end2
    assert record1 == record2


@given(scenario())
@settings(max_examples=40, deadline=None)
def test_no_link_overcommitted_ever(sc):
    num_links, caps, specs = sc
    link_caps = {f"n{i}->n{i + 1}": caps[i] for i in range(num_links)}

    def audit(sim):
        loads = {}
        for flow in sim.active_flows():
            for link in set(flow.path):
                loads[link] = loads.get(link, 0.0) + flow.rate
        for link, load in loads.items():
            assert load <= link_caps[link] * (1 + 1e-6)

    replay(num_links, caps, specs, audit=audit)


@given(scenario())
@settings(max_examples=30, deadline=None)
def test_flows_finish_in_bounded_time(sc):
    """An upper bound: serializing everything over the slowest link."""
    num_links, caps, specs = sc
    end, _, _ = replay(num_links, caps, specs)
    worst = max(s["at"] for s in specs) + sum(
        s["size"] / min(caps) for s in specs
    )
    assert end <= worst * (1 + 1e-6)
