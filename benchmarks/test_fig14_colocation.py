"""Figure 14: NF colocation analysis.

(a) ranking accuracy by training objective — total throughput loss is
    the best objective: top-1 70+%, top-3 85+% on synthesized NF
    groups;
(b)/(c) the four real NFs (NF1 Mazu-NAT, NF2 DNSProxy, NF3 UDPCount,
    NF4 Webgen), six colocation pairs: throughput degradation varies
    across pairs and Clara's ranking orders them well; latency rises
    under colocation even though the ranking objective is throughput.
"""

from dataclasses import replace
import itertools

import numpy as np
import pytest

from repro.core.colocation import (
    ColocationAdvisor,
    OBJECTIVES,
    make_candidate,
    ranking_accuracy,
)
from repro.core.prepare import prepare_element
from repro.click.elements import build_element
from repro.workload import characterize
from repro.workload.spec import WorkloadSpec

REAL_NFS = ("mazunat", "dnsproxy", "udpcount", "webgen")


@pytest.fixture(scope="module")
def pool_and_workload(nic_model):
    advisor = ColocationAdvisor(nic=nic_model, seed=0)
    pool, wc = advisor.build_candidate_pool(n_programs=20)
    return advisor, pool, wc


def _evaluate_objective(nic_model, pool, wc, objective, seed, n_groups=25,
                        group_size=5):
    advisor = ColocationAdvisor(nic=nic_model, objective=objective, seed=seed)
    advisor.fit(pool, wc, n_groups=n_groups, group_size=group_size, seed=seed)
    # Always score against the paper's headline measure: who actually
    # loses the least total throughput.
    scorer = ColocationAdvisor(nic=nic_model,
                               objective="total_throughput_loss", seed=seed)
    rng = np.random.default_rng(seed + 1)
    losses_per_query, rankings = [], []
    for _ in range(25):
        idx = rng.choice(len(pool), size=(group_size, 2))
        pairs = [(pool[i], pool[j]) for i, j in idx if i != j]
        if len(pairs) < 4:
            continue
        losses_per_query.append(
            [scorer.pair_loss(scorer.measure_pair(a, b, wc)) for a, b in pairs]
        )
        rankings.append(advisor.rank_pairs(pairs))
    return (
        ranking_accuracy(losses_per_query, rankings, k=1),
        ranking_accuracy(losses_per_query, rankings, k=2),
        ranking_accuracy(losses_per_query, rankings, k=3),
    )


def test_fig14a_ranking_accuracy(pool_and_workload, nic_model, write_result,
                                 benchmark):
    _advisor, pool, wc = pool_and_workload
    rows = [
        "Figure 14(a): colocation ranking accuracy by training objective",
        f"{'objective':26s} {'top-1':>6s} {'top-2':>6s} {'top-3':>6s}",
    ]
    accs = {}
    for objective in OBJECTIVES:
        top1, top2, top3 = _evaluate_objective(
            nic_model, pool, wc, objective, seed=0
        )
        accs[objective] = (top1, top2, top3)
        rows.append(f"{objective:26s} {top1:6.2f} {top2:6.2f} {top3:6.2f}")
    write_result("fig14a_ranking", "\n".join(rows))
    benchmark(lambda: None)

    # Paper: total throughput loss achieves 70+% top-1 and 85+% top-3.
    t1, _t2, t3 = accs["total_throughput_loss"]
    assert t1 >= 0.7
    assert t3 >= 0.85
    # And it is at least as good as the latency objectives at top-1.
    assert t1 >= max(accs["total_latency_loss"][0],
                     accs["average_latency_loss"][0]) - 0.05


@pytest.fixture(scope="module")
def real_nf_pairs(pool_and_workload, nic_model, profiler):
    advisor, pool, wc = pool_and_workload
    advisor.fit(pool, wc, n_groups=30, group_size=5)
    spec = WorkloadSpec(name="fig14", n_flows=200_000, zipf_alpha=0.4,
                        n_packets=300)
    candidates = {}
    for nf in REAL_NFS:
        nf_spec = replace(
            spec, udp_fraction=1.0 if nf in ("udpcount", "dnsproxy") else 0.0
        )
        _el, module, profile, freq = profiler(nf, nf_spec)
        prepared = prepare_element(build_element(nf))
        candidates[nf] = make_candidate(
            prepared, profile, nic_model, nf_spec.packet_bytes
        )
    pairs = list(itertools.combinations(REAL_NFS, 2))
    results = {
        pair: advisor.measure_pair(candidates[pair[0]], candidates[pair[1]],
                                   characterize(spec, nic_model.hierarchy))
        for pair in pairs
    }
    return advisor, candidates, pairs, results


def test_fig14bc_real_nf_pairs(real_nf_pairs, write_result, benchmark):
    advisor, candidates, pairs, results = real_nf_pairs
    rows = [
        "Figure 14(b)/(c): colocation of the four real NFs, six pairs",
        f"{'pair':22s} {'tput loss':>10s} {'lat increase':>13s}",
    ]
    tput_losses = {}
    for pair in pairs:
        res = results[pair]
        tput_losses[pair] = res.total_throughput_loss
        rows.append(
            f"{pair[0]}+{pair[1]:12s} {res.total_throughput_loss:10.1%}"
            f" {res.total_latency_loss:13.1%}"
        )
    # Clara's predicted friendliness ranking over the six pairs.
    pair_objs = [(candidates[a], candidates[b]) for a, b in pairs]
    order = advisor.rank_pairs(pair_objs)
    ranked = [pairs[i] for i in order]
    rows.append(
        "Clara ranking (friendliest first): "
        + "  ".join(f"{a}+{b}" for a, b in ranked)
    )
    write_result("fig14bc_pairs", "\n".join(rows))
    benchmark(lambda: None)

    losses = list(tput_losses.values())
    # Degradation varies across pairs (paper: up to ~15 points spread).
    assert max(losses) - min(losses) > 0.02
    assert all(l >= -1e-9 for l in losses)
    # Paper: "Clara has correctly ranked all top-3 choices for these
    # NFs" — the predicted top-3 set matches the measured top-3 set,
    # and the #1 suggestion is among the two actually-friendliest.
    true_order = sorted(pairs, key=lambda p: tput_losses[p])
    assert set(ranked[:3]) == set(true_order[:3])
    assert ranked[0] in true_order[:2]
    # Latency also degrades under contention for the worst pair.
    worst_pair = max(pairs, key=lambda p: tput_losses[p])
    assert results[worst_pair].total_latency_loss > 0.0
