"""Tests for the live distributed DSE runtime."""

import numpy as np
import pytest

from repro.core import LiveDseRuntime
from repro.dse import DistributedStateEstimator, decompose, dse_pmu_placement
from repro.grid import run_ac_power_flow
from repro.grid.cases import case118, synthetic_grid
from repro.measurements import full_placement, generate_measurements


@pytest.fixture(scope="module")
def live_setup(net118, pf118):
    dec = decompose(net118, 9, seed=0)
    rng = np.random.default_rng(0)
    plac = full_placement(net118).merged_with(dse_pmu_placement(dec))
    ms = generate_measurements(net118, plac, pf118, rng=rng)
    ref = DistributedStateEstimator(dec, ms).run()
    return dec, ms, ref


class TestLiveRuntime:
    def test_bitwise_match_inproc(self, live_setup):
        """The live sites, fed only by wire bytes, reproduce the in-process
        DSE exactly (same Jacobi schedule, same solver, same data)."""
        dec, ms, ref = live_setup
        live = LiveDseRuntime(dec, ms).run()
        assert live.errors == []
        assert np.array_equal(live.Vm, ref.Vm)
        assert np.array_equal(live.Va, ref.Va)

    def test_bitwise_match_tcp(self, live_setup):
        dec, ms, ref = live_setup
        live = LiveDseRuntime(dec, ms, use_tcp=True).run()
        assert live.errors == []
        assert np.array_equal(live.Vm, ref.Vm)
        assert np.array_equal(live.Va, ref.Va)

    def test_site_stats_recorded(self, live_setup):
        dec, ms, _ = live_setup
        live = LiveDseRuntime(dec, ms).run()
        assert set(live.sites) == set(range(dec.m))
        for s, st in live.sites.items():
            assert st.step1_time > 0
            assert len(st.step2_times) == live.rounds
            expected_msgs = live.rounds * len(dec.neighbors(s))
            assert st.messages_received == expected_msgs
            assert st.bytes_sent > 0

    def test_conservation_of_bytes(self, live_setup):
        """Every byte sent is received by exactly one site."""
        dec, ms, _ = live_setup
        live = LiveDseRuntime(dec, ms).run()
        sent = sum(st.bytes_sent for st in live.sites.values())
        received = sum(st.bytes_received for st in live.sites.values())
        assert sent == received

    def test_rounds_default_diameter(self, live_setup):
        dec, ms, _ = live_setup
        live = LiveDseRuntime(dec, ms).run()
        assert live.rounds == max(1, dec.diameter())

    def test_explicit_rounds(self, live_setup):
        dec, ms, _ = live_setup
        live = LiveDseRuntime(dec, ms).run(rounds=1)
        assert live.rounds == 1
        for st in live.sites.values():
            assert len(st.step2_times) == 1

    def test_wall_time_positive(self, live_setup):
        dec, ms, _ = live_setup
        live = LiveDseRuntime(dec, ms).run()
        assert live.wall_time > 0

    def test_empty_fault_plan_keeps_bitwise_parity(self, live_setup):
        """An installed injector with no rules leaves both transports
        bit-identical — the hooks are consulted but never fire."""
        from repro import faults
        from repro.faults import FaultPlan

        dec, ms, ref = live_setup
        with faults.injection(FaultPlan(seed=7)) as inj:
            inproc = LiveDseRuntime(dec, ms).run()
            tcp = LiveDseRuntime(dec, ms, use_tcp=True).run()
        assert inj.total_fired() == 0
        for live in (inproc, tcp):
            assert live.errors == []
            assert live.degraded == {}
            assert live.degraded_subsystems == []
            assert np.array_equal(live.Vm, ref.Vm)
            assert np.array_equal(live.Va, ref.Va)

    def test_starved_site_runs_degraded_round(self, live_setup):
        """Dropping every update bound for one site starves it for the
        round; it keeps solving on last-known values and flags the round."""
        from repro import faults
        from repro.faults import FaultPlan

        dec, ms, _ = live_setup
        plan = FaultPlan(seed=0).add("mux.forward", "drop", key=(None, 0))
        live = LiveDseRuntime(dec, ms, recv_timeout=0.3)
        with faults.injection(plan):
            res = live.run(rounds=1)
        assert res.degraded == {0: [0]}
        assert res.sites[0].degraded_rounds == [0]
        assert res.errors

    def test_small_synthetic_grid(self):
        net = synthetic_grid(n_areas=3, buses_per_area=10, seed=4)
        pf = run_ac_power_flow(net, flat_start=True)
        dec = decompose(net, 3, seed=0)
        rng = np.random.default_rng(5)
        plac = full_placement(net).merged_with(dse_pmu_placement(dec))
        ms = generate_measurements(net, plac, pf, rng=rng)
        live = LiveDseRuntime(dec, ms).run()
        assert live.errors == []
        err = live.state_error(pf.Vm, pf.Va)
        assert err["vm_rmse"] < 5e-3

    @pytest.mark.parametrize(
        "condense,bad_id", [(False, -1), (False, "n_bus"), (True, "n_bus")]
    )
    def test_out_of_range_bus_id_is_corrupt(
        self, live_setup, monkeypatch, condense, bad_id
    ):
        """A frame naming a bus outside the grid is rejected on receive: the
        receiving site records a corrupt update and a degraded round, and
        its neighbour state is not written through the bogus id."""
        import threading

        from repro.core import runtime

        dec, ms, _ = live_setup
        n_bus = dec.net.n_bus
        bad = n_bus if bad_id == "n_bus" else bad_id
        name = "pack_condensed_update" if condense else "pack_state_update"
        real = getattr(runtime, name)
        sent = []

        def pack_one_bogus(*args, **kw):
            # site 0's first frame names one bus that does not exist
            if threading.current_thread().name == "site-0" and not sent:
                args = list(args)
                i = 1 if condense else 0  # position of the bus ids
                args[i] = np.array(args[i], dtype=np.int64)
                args[i][0] = bad
                sent.append(bad)
            return real(*args, **kw)

        monkeypatch.setattr(runtime, name, pack_one_bogus)
        res = LiveDseRuntime(dec, ms, condense=condense).run(rounds=2)
        assert sent == [bad]
        corrupt = [e for e in res.errors if "outside the grid" in e]
        assert corrupt and all("round 0: corrupt update" in e for e in corrupt)
        assert res.degraded
        assert set(res.degraded) <= {int(b) for b in dec.neighbors(0)}
        assert all(rs == [0] for rs in res.degraded.values())
        assert np.all(np.isfinite(res.Vm)) and np.all(np.isfinite(res.Va))
