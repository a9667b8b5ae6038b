"""The package surface: ``photonkit`` re-exports every public name that its
library modules declare in their ``__all__``, and nothing is declared twice."""

import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import photonkit as pk
from photonkit import (blinking, core, correlator, fileio, fit, pipeline,
                       sim)

LIBRARY = (core, sim, correlator, fit, blinking, fileio, pipeline)

# Every name ``photonkit`` exported while its ``__init__`` listed them by hand.
EARLIER_NAMES = """
    BadMagicError BlinkingLaw BlinkingResult CHANNEL_A CHANNEL_B
    CoincidenceHistogram DecayHistogram DetectorModel
    DwellModelComparison EmissionRecord EmitterModel ExcitationConfig
    FitResult G2CwParams G2PwParams IntensityTrace Measurement
    MultiExpParams NoDipError PS_PER_MS PS_PER_NS PS_PER_S PeriodicStream
    ReportDocument SYNC_CHANNEL Segment TimestampFileError TimestampStream
    TruncatedFileError UnsortedRecordsError UnsupportedVersionError
    Verdict alpha_distribution analyze_blinking
    average_lifetime brute_force_correlate compare_dwell_models
    cross_correlate cw_g2_model detect_hbt
    export_histogram_csv fit_exponential_dwell fit_g2_cw fit_g2_pw
    fit_multiexp fit_power_law_mle generate_emission
    intensity_trace levenberg_marquardt multi_exp_model normalize_g2
    ns_to_ps ps_to_ns pulsed_g2_model read_histogram_csv read_timestamps
    run_pipeline sample_dwells_ms segment_trace simulate_intensity_trace
    simulate_poissonian single_photon_verdict sync_decay_histogram
    write_timestamps
""".split()


class TestPackageSurface:
    @pytest.mark.parametrize("module", LIBRARY, ids=lambda m: m.__name__)
    def test_module_names_resolve_to_the_same_objects(self, module):
        for name in module.__all__:
            assert getattr(pk, name) is getattr(module, name), name

    def test_all_is_the_union_without_duplicates(self):
        union = [name for module in LIBRARY for name in module.__all__]
        assert len(set(pk.__all__)) == len(pk.__all__)
        assert set(pk.__all__) == set(union)
        assert len(union) == len(set(union))

    def test_earlier_names_still_resolve(self):
        owner = {name: module for module in LIBRARY for name in module.__all__}
        for name in EARLIER_NAMES:
            assert name in pk.__all__, name
            assert getattr(pk, name) is getattr(owner[name], name), name

    def test_import_loads_the_library_but_not_the_cli(self):
        code = ("import sys, photonkit; print(' '.join(sorted("
                "m for m in sys.modules if m.startswith('photonkit'))))")
        env = {**os.environ,
               "PYTHONPATH": str(Path(pk.__file__).resolve().parents[1])}
        loaded = subprocess.run([sys.executable, "-c", code], env=env,
                                check=True, capture_output=True,
                                text=True).stdout.split()
        assert loaded == sorted(["photonkit"] + [m.__name__ for m in LIBRARY])

    def test_duplicate_channel_error_is_catchable_from_the_package(
            self, tmp_path):
        # Channel 0 stored both as records and as a periodic table entry.
        path = tmp_path / "dup.ptst"
        pk.write_timestamps([pk.TimestampStream(0, [10], 100)], path)
        with open(path, "ab") as f:
            f.write(struct.pack("<4sB", pk.PERIODIC_TAG, 1)
                    + struct.pack("<BQQQ", 0, 0, 100, 3))
        try:
            pk.read_timestamps(path)
        except pk.DuplicateChannelError as e:
            assert e.code == "duplicate_channel"
        else:
            pytest.fail("the reader accepted a channel stored twice")
