"""Extension experiments beyond the paper's evaluation (DESIGN.md §6):
partial offloading and model interpretability."""


from repro.click.elements import build_element, install_state
from repro.click.interp import Interpreter
from repro.core.explain import render_explanations, svm_top_patterns
from repro.core.partition import PartitionAdvisor, packet_paths
from repro.core.prepare import prepare_element
from repro.nic.machine import WorkloadCharacter
from repro.workload import generate_trace
from repro.workload.spec import WorkloadSpec


def test_ext_partial_offload(nic_model, write_result, benchmark):
    """A firewall with an expensive, rarely taken ACL slow path: the
    partition advisor punts the slow path to the host and beats full
    offload when the NIC is the bottleneck; as the slow-path share
    grows, the split's margin erodes."""
    n_acl = 64
    advisor = PartitionAdvisor(nic_model, cores=2)
    workload = WorkloadCharacter(packet_bytes=256, emem_cache_hit_rate=0.4)
    rows = ["Extension: partial offloading of the firewall slow path",
            f"{'SYN share':>10s} {'full offload':>13s} {'best split':>11s}"
            f" {'punt':>6s} {'no offload':>11s}"]
    margins = {}
    for syn_fraction in (0.02, 0.2, 0.6):
        element = build_element("firewall", n_acl=n_acl)
        prepared = prepare_element(element)
        interp = Interpreter(prepared.module)
        install_state(
            interp,
            {
                "n_acl": n_acl,
                "acl_prefix": [0xFFFFFFFF] * (n_acl - 1) + [0],
                "acl_mask": [0xFFFFFFFF] * (n_acl - 1) + [0],
                "acl_action": [0] * (n_acl - 1) + [1],
            },
        )
        spec = WorkloadSpec(name="t", n_flows=64, n_packets=400,
                            syn_fraction=syn_fraction)
        paths = packet_paths(interp, generate_trace(spec, seed=0))
        _best, evaluated = advisor.advise(
            prepared, interp.profile, paths, workload
        )
        full = next(p for p in evaluated if p.is_full_offload)
        none = next(
            p for p in evaluated if p.host_blocks and p.punt_fraction >= 1.0
        )
        splits = [
            p for p in evaluated
            if p.host_blocks and 0.0 < p.punt_fraction < 1.0
        ]
        best_split = max(splits, key=lambda p: p.throughput_mpps)
        margins[syn_fraction] = (
            best_split.throughput_mpps / full.throughput_mpps
        )
        rows.append(
            f"{syn_fraction:10.0%} {full.throughput_mpps:13.2f}"
            f" {best_split.throughput_mpps:11.2f}"
            f" {best_split.punt_fraction:6.1%}"
            f" {none.throughput_mpps:11.2f}"
        )
    rows.append(
        "split/full margins: "
        + ", ".join(f"{k:.0%}: {v:.2f}x" for k, v in margins.items())
    )
    write_result("ext_partition", "\n".join(rows))
    benchmark(lambda: None)

    # Splitting wins when the slow path is rare, and the advantage
    # shrinks as the punted share grows (PCIe crossings accumulate).
    assert margins[0.02] > 1.05
    assert margins[0.02] > margins[0.6]


def test_ext_explanations(clara, write_result, benchmark):
    """Interpretability report: GBDT importances + SVM idioms."""
    text = render_explanations(clara.scaleout.model, clara.identifier)
    write_result("ext_explanations", text)
    benchmark(lambda: None)

    crc_patterns = svm_top_patterns(clara.identifier, "crc", top=8)
    flat = " ".join(t for p in crc_patterns for t in p.pattern)
    # Section 5.3: CRC's distinctive features are bitwise ops + shifts.
    assert any(op in flat for op in ("xor", "lshr", "shl", "and"))
    assert "feature importances" in text
