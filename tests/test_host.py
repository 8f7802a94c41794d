"""Tests for the host substrate: CPU, PCIe, DMA, NVMe, FPGA, DPU."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.host import (
    AliDpu,
    ComputeServer,
    CpuComplex,
    CpuCore,
    DmaEngine,
    FpgaDevice,
    FpgaModuleSpec,
    FpgaResourceError,
    NvmeError,
    NvmeQueue,
    PcieLink,
    StorageServer,
)
from repro.net import Endpoint
from repro.profiles import DEFAULT
from repro.sim import Simulator


class TestCpuCore:
    def test_serial_fifo_execution(self):
        sim = Simulator()
        core = CpuCore(sim, "c0")
        done = []
        core.submit(100, done.append, "a")
        core.submit(50, done.append, "b")
        sim.run()
        assert done == ["a", "b"]
        assert sim.now == 150  # b waited behind a

    def test_queue_delay(self):
        sim = Simulator()
        core = CpuCore(sim, "c0")
        core.submit(500)
        assert core.queue_delay_ns == 500

    def test_negative_cost_rejected(self):
        core = CpuCore(Simulator(), "c0")
        with pytest.raises(ValueError):
            core.submit(-1)

    def test_busy_accounting(self):
        sim = Simulator()
        core = CpuCore(sim, "c0")
        core.submit(300)
        core.submit(200)
        sim.run()
        assert core.busy_ns_total == 500
        assert core.jobs_run == 2


class TestCpuComplex:
    def test_pinned_is_stable(self):
        cpu = CpuComplex(Simulator(), "cpu", 4)
        assert cpu.pinned("conn-1") is cpu.pinned("conn-1")

    def test_least_loaded_spreads(self):
        sim = Simulator()
        cpu = CpuComplex(sim, "cpu", 2)
        cpu.least_loaded().submit(1000)
        other = cpu.least_loaded()
        assert other.busy_until == 0

    def test_cores_consumed_metric(self):
        sim = Simulator()
        cpu = CpuComplex(sim, "cpu", 4)
        for core in cpu.cores:
            core.submit(1_000)
        sim.run()
        assert cpu.cores_consumed(window_ns=1_000) == pytest.approx(4.0)

    def test_at_least_one_core(self):
        with pytest.raises(ValueError):
            CpuComplex(Simulator(), "cpu", 0)

    @settings(max_examples=150, deadline=None)
    @given(
        cores=st.integers(1, 32),
        steps=st.lists(
            st.tuples(
                st.sampled_from(["least", "pinned", "direct", "advance"]),
                st.integers(0, 40),
                st.sampled_from([0, 0, 100, 100, 250, 1_000]),
            ),
            max_size=80,
        ),
    )
    def test_least_loaded_matches_a_linear_scan(self, cores, steps):
        # The reference is the scan the heap replaced: the lowest
        # busy_until, the lowest index among ties.
        sim = Simulator()
        cpu = CpuComplex(sim, "cpu", cores)
        for action, arg, cost in steps:
            if action == "least":
                cpu.least_loaded().submit(cost)
            elif action == "pinned":
                cpu.pinned(f"conn-{arg}").submit(cost)
            elif action == "direct":
                cpu.cores[arg % cores].submit(cost)
            else:
                sim.run(until=sim.now + arg * 50)
            assert cpu.least_loaded() is min(cpu.cores, key=lambda k: k.busy_until)


class TestPcie:
    def test_transfers_serialize_at_bandwidth(self):
        sim = Simulator()
        pcie = PcieLink(sim, "p", gbps=8.0, per_transfer_latency_ns=0)
        done = []
        pcie.transfer(1000, done.append, 1)  # 1000B @ 8G = 1000ns
        pcie.transfer(1000, done.append, 2)
        sim.run()
        assert done == [1, 2]
        assert sim.now == 2000

    def test_fixed_latency_added(self):
        sim = Simulator()
        pcie = PcieLink(sim, "p", gbps=8.0, per_transfer_latency_ns=300)
        pcie.transfer(1000, lambda: None)
        sim.run()
        assert sim.now == 1300

    def test_goodput_accounting(self):
        sim = Simulator()
        pcie = PcieLink(sim, "p", gbps=8.0)
        pcie.transfer(125_000)
        assert pcie.goodput_gbps(1_000_000) == pytest.approx(1.0)

    def test_bandwidth_validation(self):
        with pytest.raises(ValueError):
            PcieLink(Simulator(), "p", gbps=0)


class TestDma:
    def test_dma_adds_setup_then_pcie(self):
        sim = Simulator()
        pcie = PcieLink(sim, "p", gbps=8.0, per_transfer_latency_ns=0)
        dma = DmaEngine(sim, "dma", pcie, setup_ns=200)
        done = []
        dma.read_from_guest(1000, done.append, "x")
        sim.run()
        assert done == ["x"]
        assert sim.now == 1200

    def test_returned_completion_is_when_the_callback_fires(self):
        # On a busy link the returned time includes the wait, the wire
        # time and the per-transfer latency, and both paths agree.
        def busy_engine():
            sim = Simulator()
            pcie = PcieLink(sim, "p", gbps=8.0, per_transfer_latency_ns=300)
            pcie.transfer(4000)  # busy until 4300
            return sim, DmaEngine(sim, "dma", pcie, setup_ns=200)

        sim, dma = busy_engine()
        fired = []
        returned = dma.read_from_guest(1000, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [returned] == [4300 + 1000 + 300]
        _, silent = busy_engine()
        assert silent.read_from_guest(1000) == returned

    def test_setup_bounds_the_start_on_an_idle_link(self):
        sim = Simulator()
        pcie = PcieLink(sim, "p", gbps=8.0, per_transfer_latency_ns=0)
        dma = DmaEngine(sim, "dma", pcie, setup_ns=200)
        assert dma.write_to_guest(1000) == 1200
        assert pcie.busy_until == 1200

    def test_read_write_counters(self):
        sim = Simulator()
        dma = DmaEngine(sim, "dma", PcieLink(sim, "p", 8.0), setup_ns=0)
        dma.read_from_guest(10, lambda: None)
        dma.write_to_guest(10, lambda: None)
        sim.run()
        assert dma.reads == 1 and dma.writes == 1


class TestNvme:
    def test_submit_then_complete(self):
        sim = Simulator()
        q = NvmeQueue(sim, "nvme", submit_latency_ns=100, doorbell_ns=50)
        trail = []
        q.submit("cmd", lambda c: (trail.append((sim.now, c)),
                                   q.complete(c, lambda c2: trail.append((sim.now, "done")))))
        sim.run()
        assert trail[0] == (100, "cmd")
        assert trail[1] == (150, "done")
        assert q.inflight == 0

    def test_queue_depth_enforced(self):
        sim = Simulator()
        q = NvmeQueue(sim, "nvme", queue_depth=1)
        q.submit("a", lambda c: None)
        with pytest.raises(NvmeError):
            q.submit("b", lambda c: None)

    def test_completion_without_submission_rejected(self):
        q = NvmeQueue(Simulator(), "nvme")
        with pytest.raises(NvmeError):
            q.complete("ghost")


class TestFpga:
    def test_resource_budget_enforced(self):
        fpga = FpgaDevice(Simulator(), "f", lut_budget_pct=10.0)
        fpga.register_module(FpgaModuleSpec("A", 6.0, 1.0))
        with pytest.raises(FpgaResourceError):
            fpga.register_module(FpgaModuleSpec("B", 5.0, 1.0))

    def test_duplicate_module_rejected(self):
        fpga = FpgaDevice(Simulator(), "f")
        fpga.register_module(FpgaModuleSpec("A", 1.0, 1.0))
        with pytest.raises(FpgaResourceError):
            fpga.register_module(FpgaModuleSpec("A", 1.0, 1.0))

    def test_resource_report_totals(self):
        fpga = FpgaDevice(Simulator(), "f")
        fpga.register_module(FpgaModuleSpec("A", 2.0, 3.0))
        fpga.register_module(FpgaModuleSpec("B", 1.5, 0.5))
        report = fpga.resource_report()
        assert report["Total"] == {"lut_pct": 3.5, "bram_pct": 3.5}

    def test_pipeline_latency(self):
        sim = Simulator()
        fpga = FpgaDevice(sim, "f", pipeline_latency_ns=800)
        done = []
        fpga.process(done.append, "pkt")
        sim.run()
        assert done == ["pkt"] and sim.now == 800

    def test_negative_resources_rejected(self):
        with pytest.raises(ValueError):
            FpgaModuleSpec("bad", -1.0, 0.0)


class TestDpuAndServers:
    def test_dpu_assembly(self):
        sim = Simulator()
        dpu = AliDpu(sim, "dpu0", DEFAULT.dpu, DEFAULT.pcie)
        assert len(dpu.cpu) == 6  # ALI-DPU's six infrastructure cores
        assert dpu.line_rate_gbps == 50.0  # 2 x 25GE
        assert dpu.internal_pcie.gbps < 100.0  # "far less than 100Gbps"

    def test_bare_metal_server_has_dpu(self):
        sim = Simulator()
        server = ComputeServer(sim, Endpoint(sim, "h"), DEFAULT, hosting="bare_metal")
        assert server.dpu is not None
        assert server.infra_cpu is server.dpu.cpu

    def test_vm_server_uses_host_cpu(self):
        sim = Simulator()
        server = ComputeServer(sim, Endpoint(sim, "h"), DEFAULT, hosting="vm")
        assert server.dpu is None
        assert server.infra_cpu is server.host_cpu

    def test_bad_hosting_rejected(self):
        with pytest.raises(ValueError):
            ComputeServer(Simulator(), Endpoint(Simulator(), "h"), DEFAULT, hosting="moon")

    def test_storage_server_roles(self):
        sim = Simulator()
        assert StorageServer(sim, Endpoint(sim, "s"), "chunk").role == "chunk"
        with pytest.raises(ValueError):
            StorageServer(sim, Endpoint(sim, "s2"), "tape")
