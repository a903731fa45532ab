"""The abstract's headline claims, asserted in one place.

"...pin-compatible with POWER8 buffered memory DIMMs ... running at
aggregate memory channel speeds of 35 GB/s per link.  Enablement of
STT-MRAM and NVDIMM using ConTutto shows up to 12.5x lower latency and
7.5x higher bandwidth compared to the respective technologies when
attached to the PCIe bus."
"""

from bench_util import run_once

from repro.core.experiment import run_fio_matrix
from repro.dmi import DOWN_LANES, UP_LANES


def test_abstract_headline_claims(benchmark):
    def experiment():
        # channel capacity: 14 + 21 lanes x 8 Gb/s = 35 GB/s aggregate
        lanes = DOWN_LANES + UP_LANES
        aggregate_gb_s = lanes * 8 / 8  # 8 Gb/s per lane -> GB/s
        fig9, fig10 = run_fio_matrix(ios=24)
        return aggregate_gb_s, fig9, fig10

    aggregate_gb_s, fig9, fig10 = run_once(benchmark, experiment)

    # the structural 35 GB/s per-link claim
    assert aggregate_gb_s == 35.0

    lat = {row[0]: (row[1], row[2]) for row in fig10.rows}
    iops = {row[0]: (row[1], row[2]) for row in fig9.rows}

    # "up to 12.5x lower latency": best latency ratio of a ConTutto attach
    # vs the same-class technology on PCIe
    best_latency_x = max(
        lat["nvram_pcie"][1] / lat["nvdimm_contutto"][1],   # NVDIMM class
        lat["mram_pcie"][1] / lat["mram_contutto"][1],      # MRAM class
    )
    # "7.5x higher bandwidth" (IOPS)
    best_iops_x = max(
        iops["nvdimm_contutto"][1] / iops["nvram_pcie"][1],
        iops["mram_contutto"][1] / iops["mram_pcie"][1],
    )
    print(f"\n  DMI link aggregate: {aggregate_gb_s:.0f} GB/s (paper: 35)")
    print(f"  best latency improvement: {best_latency_x:.1f}x (paper: up to 12.5x)")
    print(f"  best IOPS improvement:    {best_iops_x:.1f}x (paper: up to 7.5x)")

    assert 9.0 <= best_latency_x <= 20.0
    assert 5.0 <= best_iops_x <= 11.0
    benchmark.extra_info.update(
        latency_x=round(best_latency_x, 1), iops_x=round(best_iops_x, 1)
    )
