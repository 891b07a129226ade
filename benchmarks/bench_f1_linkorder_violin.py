"""F1 — Figure: distribution of perlbench runtimes across link orders
(paper Figure 1: violin plots of cycles over ~33 link orders, O2 vs O3).

perlbench has three modules (six orders); the violin summarizes the
runtime distribution per optimization level, showing that a single link
order is one draw from a spread.
"""

from repro.core.bias import link_order_study
from repro.core.report import render_violin
from repro.stats import kernel_density

from common import BASE, TREATMENT, experiment, publish


def test_f1_linkorder_violins(benchmark):
    exp = experiment("perlbench")
    study = link_order_study(exp, BASE, TREATMENT, max_orders=6)

    blocks = []
    for label, cycles in (
        ("O2", study.base_cycles),
        ("O3", study.treatment_cycles),
    ):
        vs = kernel_density(cycles, points=48)
        blocks.append(
            render_violin(
                vs,
                title=f"F1: perlbench cycles across {len(cycles)} link "
                f"orders — {label}",
            )
        )
        blocks.append("")
    spread2 = study.base_bias().magnitude
    spread3 = study.treatment_bias().magnitude
    blocks.append(f"runtime spread (max/min): O2 {spread2:.4f}  O3 {spread3:.4f}")
    publish("F1_linkorder_violin", "\n".join(blocks))

    # Shape assertions: relinking must genuinely move both distributions.
    assert spread2 > 1.0005
    assert spread3 > 1.0005

    benchmark.pedantic(
        lambda: kernel_density(study.base_cycles, points=48),
        rounds=5,
        iterations=1,
    )
