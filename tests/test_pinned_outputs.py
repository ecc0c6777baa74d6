"""Pinned outputs of a small sweep and a post-SNR measurement.

The values below were frozen from a run of the engine; a change to any of
them is an output change and has to be recorded as one. The sweep covers
all eight receivers with BPSK and the four conventional ones with 16-QAM
and 8-PSK, each under ideal (genie) and decision feedback, at nr=1, v=4,
M=64, L=4. 8-PSK is the alphabet whose points are not stored in ring
order (a point's index is its Gray label), so its rows pin that order.
A fixed-count 16-QAM decision sweep and a post-SNR run of more than one
front-end pass pin the cells that cannot stop early, whose batches are
sized by the blocks they are certain to commit. Counts are pinned exactly
and dB values to 1e-9 dB: reordering a sum may move them in their last
digits, a change of algorithm moves them further.
"""

import pytest

from scfde import simulator as sim
from scfde.equalizer import RECEIVER_NAMES

TOL_DB = 1e-9

_COMMON = dict(nr=1, v=4, m=64, fbf_len=4, min_bit_errors=100, max_blocks=24,
               master_seed=5)

# alphabet, feedback, receiver, snr_db, bits, errors, blocks, post_snr_db,
# analytic_db
SWEEP_ROWS = [
    ('bpsk', 'genie', 'zf-le', 2.0, 576, 109, 9, -4.841036161474817, None),
    ('bpsk', 'genie', 'zf-le', 6.0, 896, 103, 14, -3.3476980178924665, None),
    ('bpsk', 'genie', 'mmse-le', 2.0, 1344, 103, 21, -0.10945708063378423, -0.11417774733090866),
    ('bpsk', 'genie', 'mmse-le', 6.0, 1536, 39, 24, 3.290798544590115, 2.957828372296039),
    ('bpsk', 'genie', 'zf-dfe', 2.0, 1408, 106, 22, -0.1809568423036896, -0.5068157813485228),
    ('bpsk', 'genie', 'zf-dfe', 6.0, 1536, 53, 24, 2.6467910019484666, 3.4931842186514777),
    ('bpsk', 'genie', 'mmse-dfe', 2.0, 1536, 95, 24, 1.4286837398744934, 0.9058302752471961),
    ('bpsk', 'genie', 'mmse-dfe', 6.0, 1536, 22, 24, 4.572938083922544, 4.48768094702525),
    ('bpsk', 'genie', 'wl-zf-le', 2.0, 1152, 101, 18, 2.4653764692116114, 1.9999999999999998),
    ('bpsk', 'genie', 'wl-zf-le', 6.0, 1536, 78, 24, 2.6055665442781066, 6.0),
    ('bpsk', 'genie', 'wl-mmse-le', 2.0, 1280, 111, 20, 2.973469407812863, 3.447863824177242),
    ('bpsk', 'genie', 'wl-mmse-le', 6.0, 1536, 30, 24, 6.406166758925744, 6.986053167473588),
    ('bpsk', 'genie', 'wl-zf-dfe', 2.0, 1344, 105, 21, 3.0171284721771885, 3.836129037683996),
    ('bpsk', 'genie', 'wl-zf-dfe', 6.0, 1536, 35, 24, 6.54901784848937, 7.836129037683996),
    ('bpsk', 'genie', 'wl-mmse-dfe', 2.0, 1536, 73, 24, 4.34433397579924, 4.241808370575849),
    ('bpsk', 'genie', 'wl-mmse-dfe', 6.0, 1536, 23, 24, 7.679214007124976, 8.062957109310785),
    ('bpsk', 'decision', 'zf-le', 2.0, 576, 109, 9, -4.841036161474817, None),
    ('bpsk', 'decision', 'zf-le', 6.0, 896, 103, 14, -3.3476980178924665, None),
    ('bpsk', 'decision', 'mmse-le', 2.0, 1344, 103, 21, -0.10945708063378423, -0.11417774733090866),
    ('bpsk', 'decision', 'mmse-le', 6.0, 1536, 39, 24, 3.290798544590115, 2.957828372296039),
    ('bpsk', 'decision', 'zf-dfe', 2.0, 1152, 105, 18, -0.15565414275125372, -0.5068157813485228),
    ('bpsk', 'decision', 'zf-dfe', 6.0, 1536, 62, 24, 2.6467910019484666, 3.4931842186514777),
    ('bpsk', 'decision', 'mmse-dfe', 2.0, 1536, 98, 24, 1.4286837398744934, 0.9058302752471961),
    ('bpsk', 'decision', 'mmse-dfe', 6.0, 1536, 29, 24, 4.572938083922544, 4.48768094702525),
    ('bpsk', 'decision', 'wl-zf-le', 2.0, 1152, 101, 18, 2.4653764692116114, 1.9999999999999998),
    ('bpsk', 'decision', 'wl-zf-le', 6.0, 1536, 78, 24, 2.6055665442781066, 6.0),
    ('bpsk', 'decision', 'wl-mmse-le', 2.0, 1280, 111, 20, 2.973469407812863, 3.447863824177242),
    ('bpsk', 'decision', 'wl-mmse-le', 6.0, 1536, 30, 24, 6.406166758925744, 6.986053167473588),
    ('bpsk', 'decision', 'wl-zf-dfe', 2.0, 1216, 108, 19, 3.004002226659386, 3.836129037683996),
    ('bpsk', 'decision', 'wl-zf-dfe', 6.0, 1536, 45, 24, 6.54901784848937, 7.836129037683996),
    ('bpsk', 'decision', 'wl-mmse-dfe', 2.0, 1536, 83, 24, 4.34433397579924, 4.241808370575849),
    ('bpsk', 'decision', 'wl-mmse-dfe', 6.0, 1536, 33, 24, 7.679214007124976, 8.062957109310785),
    ('16qam', 'genie', 'zf-le', 10.0, 768, 122, 3, 5.8420541897060465, None),
    ('16qam', 'genie', 'zf-le', 16.0, 1024, 167, 4, -0.48388910175315797, None),
    ('16qam', 'genie', 'mmse-le', 10.0, 512, 100, 2, 4.3852504806009165, 5.980963605678556),
    ('16qam', 'genie', 'mmse-le', 16.0, 1280, 121, 5, 8.484892810597724, 10.567567809198202),
    ('16qam', 'genie', 'zf-dfe', 10.0, 1024, 103, 4, 7.648762610500237, 7.493184218651478),
    ('16qam', 'genie', 'zf-dfe', 16.0, 5376, 106, 21, 13.057705235737062, 13.493184218651477),
    ('16qam', 'genie', 'mmse-dfe', 10.0, 1280, 114, 5, 8.264513119973609, 8.127828272380594),
    ('16qam', 'genie', 'mmse-dfe', 16.0, 5632, 101, 22, 13.02240265652735, 13.768957820552536),
    ('16qam', 'decision', 'zf-le', 10.0, 768, 122, 3, 5.8420541897060465, None),
    ('16qam', 'decision', 'zf-le', 16.0, 1024, 167, 4, -0.48388910175315797, None),
    ('16qam', 'decision', 'mmse-le', 10.0, 512, 100, 2, 4.3852504806009165, 5.980963605678556),
    ('16qam', 'decision', 'mmse-le', 16.0, 1280, 121, 5, 8.484892810597724, 10.567567809198202),
    ('16qam', 'decision', 'zf-dfe', 10.0, 512, 104, 2, 7.486907193404505, 7.493184218651478),
    ('16qam', 'decision', 'zf-dfe', 16.0, 1792, 101, 7, 13.477557294327218, 13.493184218651477),
    ('16qam', 'decision', 'mmse-dfe', 10.0, 1024, 117, 4, 8.044645309116385, 8.127828272380594),
    ('16qam', 'decision', 'mmse-dfe', 16.0, 3072, 107, 12, 13.094598260494221, 13.768957820552536),
    ('8psk', 'genie', 'zf-le', 8.0, 576, 144, 3, -3.2915843051185227, None),
    ('8psk', 'genie', 'zf-le', 14.0, 1920, 101, 10, 8.203141917728722, None),
    ('8psk', 'genie', 'mmse-le', 8.0, 768, 121, 4, 3.863540470534514, 4.470639739880442),
    ('8psk', 'genie', 'mmse-le', 14.0, 1920, 117, 10, 7.5858062755579745, 9.024045540947743),
    ('8psk', 'genie', 'zf-dfe', 8.0, 1152, 122, 6, 5.703855714573358, 5.493184218651478),
    ('8psk', 'genie', 'zf-dfe', 14.0, 4608, 29, 24, 12.392508530622038, 11.493184218651475),
    ('8psk', 'genie', 'mmse-dfe', 8.0, 1344, 100, 7, 6.643060933722449, 6.29703452817027),
    ('8psk', 'genie', 'mmse-dfe', 14.0, 4416, 106, 23, 10.73093186707082, 11.864205803981498),
    ('8psk', 'decision', 'zf-le', 8.0, 576, 144, 3, -3.2915843051185227, None),
    ('8psk', 'decision', 'zf-le', 14.0, 1920, 101, 10, 8.203141917728722, None),
    ('8psk', 'decision', 'mmse-le', 8.0, 768, 121, 4, 3.863540470534514, 4.470639739880442),
    ('8psk', 'decision', 'mmse-le', 14.0, 1920, 117, 10, 7.5858062755579745, 9.024045540947743),
    ('8psk', 'decision', 'zf-dfe', 8.0, 960, 122, 5, 5.888647546622037, 5.493184218651478),
    ('8psk', 'decision', 'zf-dfe', 14.0, 4608, 74, 24, 12.392508530622038, 11.493184218651475),
    ('8psk', 'decision', 'mmse-dfe', 8.0, 1152, 108, 6, 6.764542571149752, 6.29703452817027),
    ('8psk', 'decision', 'mmse-dfe', 14.0, 2880, 114, 15, 10.738278879060042, 11.864205803981498),
]

# receiver, realizations, post_snr_db, analytic_db, delta_db at nr=2, 10 dB
POST_ROWS = [
    ('zf-le', 40, 9.778339659283894, 10.0, -0.22166034071610596),
    ('mmse-le', 40, 11.090180497667987, 10.615625817279144, 0.4745546803888434),
    ('zf-dfe', 40, 11.451502532400156, 11.836129037683996, -0.38462650528384046),
    ('mmse-dfe', 40, 11.07474617053283, 11.948692177852296, -0.873946007319466),
    ('wl-zf-le', 40, 14.662514266872622, 14.771212547196624, -0.10869828032400264),
    ('wl-mmse-le', 40, 14.301061732704367, 14.835414007022077, -0.53435227431771),
    ('wl-zf-dfe', 40, 14.91473099380572, 15.455249720211093, -0.5405187264053719),
    ('wl-mmse-dfe', 40, 15.478494095226754, 15.475207328740254, 0.00328676648650017),
]

# receiver, snr_db, bits, errors, blocks, post_snr_db, analytic_db of a
# 16-QAM decision sweep that runs every cell to max_blocks = 150
FIXED_COUNT_ROWS = [
    ('zf-dfe', 16.0, 38400, 2169, 150, 12.65236232792155, 13.493184218651477),
    ('zf-dfe', 22.0, 38400, 227, 150, 19.15917154207839, 19.49318421865148),
    ('mmse-dfe', 16.0, 38400, 1748, 150, 12.943045004080174, 13.768957820552536),
    ('mmse-dfe', 22.0, 38400, 121, 150, 18.981093897214567, 19.59670282584113),
]

# receiver, realizations, post_snr_db, analytic_db, delta_db at nr=1, 6 dB,
# 300 realizations: more than the 128 rows of a front-end pass at M=64
LONG_POST_ROWS = [
    ('zf-le', 300, -4.350650488879266, None, None),
    ('wl-zf-dfe', 300, 7.158218335068936, 7.836129037683996, -0.6779107026150601),
    ('mmse-dfe', 300, 3.9782057504170765, 4.48768094702525, -0.5094751966081739),
]


def _db(expected):
    return None if expected is None else pytest.approx(expected, abs=TOL_DB,
                                                       rel=0)


@pytest.mark.parametrize("alphabet, feedback", [
    ("bpsk", "genie"), ("bpsk", "decision"),
    ("16qam", "genie"), ("16qam", "decision"),
    ("8psk", "genie"), ("8psk", "decision")])
def test_sweep_rows_pinned(alphabet, feedback):
    expected = [row[2:] for row in SWEEP_ROWS if row[:2] == (alphabet, feedback)]
    cfg = sim.SweepConfig.from_dict(dict(
        _COMMON, constellation=alphabet, feedback=feedback,
        receivers=list(dict.fromkeys(row[0] for row in expected)),
        snr=sorted({row[1] for row in expected})))
    got = [(r.receiver, r.snr_db, r.bits, r.errors, r.blocks, r.post_snr_db,
            r.analytic_db) for r in sim.run_sweep(cfg).rows]
    assert [row[:5] for row in got] == [row[:5] for row in expected]
    for g, e in zip(got, expected):
        assert g[5:] == (_db(e[5]), _db(e[6])), g[:2]


def test_post_snr_rows_pinned():
    cfg = sim.SweepConfig.from_dict(dict(
        _COMMON, nr=2, receivers=list(RECEIVER_NAMES)))
    got = sim.measure_post_snr(cfg, 10.0, 40)
    assert [(r.receiver, r.realizations) for r in got] == [
        row[:2] for row in POST_ROWS]
    for r, (_, _, post, analytic, delta) in zip(got, POST_ROWS):
        assert (r.post_snr_db, r.analytic_db, r.delta_db) == (
            _db(post), _db(analytic), _db(delta)), r.receiver


def test_fixed_count_decision_rows_pinned():
    cfg = sim.SweepConfig.from_dict(dict(
        _COMMON, constellation="16qam", feedback="decision",
        receivers=["zf-dfe", "mmse-dfe"], snr=[16.0, 22.0],
        min_bit_errors=10**9, max_blocks=150))
    got = [(r.receiver, r.snr_db, r.bits, r.errors, r.blocks, r.post_snr_db,
            r.analytic_db) for r in sim.run_sweep(cfg).rows]
    assert [row[:5] for row in got] == [row[:5] for row in FIXED_COUNT_ROWS]
    for g, e in zip(got, FIXED_COUNT_ROWS):
        assert g[5:] == (_db(e[5]), _db(e[6])), g[:2]


def test_long_post_snr_rows_pinned():
    cfg = sim.SweepConfig.from_dict(dict(
        _COMMON, receivers=[row[0] for row in LONG_POST_ROWS]))
    got = sim.measure_post_snr(cfg, 6.0, 300)
    assert [(r.receiver, r.realizations) for r in got] == [
        row[:2] for row in LONG_POST_ROWS]
    for r, (_, _, post, analytic, delta) in zip(got, LONG_POST_ROWS):
        assert (r.post_snr_db, r.analytic_db, r.delta_db) == (
            _db(post), _db(analytic), _db(delta)), r.receiver
