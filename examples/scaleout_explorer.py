#!/usr/bin/env python3
"""Exploring multicore scale-out for a ported NF.

Reproduces the paper's Figure 11 workflow on one NF: sweep the core
count under two traffic regimes, print the throughput/latency curves,
mark the knee, and compare against Clara's GBDT suggestion — all
without touching real hardware.

Run:  python examples/scaleout_explorer.py
"""

from dataclasses import replace

from repro.click.elements import build_element, initial_state, install_state
from repro.click.frontend import lower_element
from repro.click.interp import Interpreter
from repro.core import Clara, TrainConfig
from repro.nic.compiler import compile_module
from repro.nic.port import PortConfig
from repro.workload import LARGE_FLOWS, SMALL_FLOWS, characterize, generate_trace

NF = "mazunat"


def main() -> None:
    print("Training Clara (quick mode, cached)...")
    clara = Clara(seed=0).train(TrainConfig.quick(), cache="auto")

    element = build_element(NF)
    module = lower_element(element)
    program = compile_module(module, PortConfig())

    for spec0 in (LARGE_FLOWS, SMALL_FLOWS):
        spec = replace(spec0, n_packets=300)
        interp = Interpreter(module)
        install_state(interp, initial_state(element))
        profile = interp.run_trace(generate_trace(spec, seed=0))
        freq = {
            b: c / profile.packets for b, c in profile.block_counts.items()
        }
        workload = characterize(spec, clara.nic.hierarchy)
        sweep = clara.nic.sweep_cores(program, freq, workload)
        knee = clara.nic.optimal_cores(sweep)

        analysis = clara.analyze(element, spec)
        suggested = analysis.report.suggested_cores

        print(f"\n=== {NF} under '{spec0.name}' "
              f"(EMEM cache hit {workload.emem_cache_hit_rate:.0%}) ===")
        print(f"{'cores':>6s} {'tput(Mpps)':>11s} {'lat(us)':>9s}"
              f" {'ratio':>7s}")
        for cores in (1, 2, 4, 8, 12, 16, 24, 32, 40, 48, 60):
            perf = sweep[cores]
            marker = "  <-- knee" if cores == knee else ""
            print(f"{cores:6d} {perf.throughput_mpps:11.2f}"
                  f" {perf.latency_us:9.2f} {perf.tput_lat_ratio:7.2f}"
                  f"{marker}")
        print(f"measured knee: {knee} cores; Clara suggests: {suggested}")


if __name__ == "__main__":
    main()
