import math

import pytest

from hrerank import (
    ExperimentConfig,
    PcMatrix,
    Problem,
    koczkodaj_index,
    run_experiment,
    summarize,
    validate,
    write_csv,
)
from hrerank.montecarlo import _SEED_STRIDE, generate_consistent, perturb

from _support import entry


class TestGenerateConsistent:
    def test_koczkodaj_is_zero(self):
        for seed in range(10):
            matrix, _ = generate_consistent(5, seed)
            assert koczkodaj_index(matrix) <= 1e-12

    def test_deterministic(self):
        a, wa = generate_consistent(4, 123)
        b, wb = generate_consistent(4, 123)
        assert a.entries == b.entries
        assert wa == wb

    def test_entries_rederive_from_weights(self):
        # self-oracle pinned at first build: entries are exactly w_i/w_j above
        # the diagonal and the float inverse below
        matrix, weights = generate_consistent(3, 1)
        for i in range(1, 4):
            for j in range(1, 4):
                if i < j:
                    assert entry(matrix, i, j) == weights[i - 1] / weights[j - 1]
                elif i > j:
                    assert entry(matrix, i, j) == 1.0 / entry(matrix, j, i)
                else:
                    assert entry(matrix, i, j) == 1.0

    def test_weights_drawn_from_tenth_to_ten(self):
        for seed in range(20):
            _, weights = generate_consistent(6, seed)
            assert all(0.1 <= w <= 10.0 for w in weights)


class TestPerturb:
    def test_zero_noise_is_identity(self):
        matrix, _ = generate_consistent(5, 7)
        assert perturb(matrix, 0.0, 99).entries == matrix.entries

    def test_output_reciprocal(self):
        matrix, _ = generate_consistent(5, 11)
        noisy = perturb(matrix, 0.7, 12)
        for i in range(1, 6):
            for j in range(i + 1, 6):
                assert abs(entry(noisy, i, j) * entry(noisy, j, i) - 1.0) <= 1e-12

    def test_noise_creates_inconsistency(self):
        matrix, _ = generate_consistent(5, 13)
        assert koczkodaj_index(perturb(matrix, 0.5, 14)) > 0.0

    def test_missing_pairs_stay_missing(self):
        rows = (
            (1.0, 2.0, None),
            (0.5, 1.0, 4.0),
            (None, 0.25, 1.0),
        )
        noisy = perturb(PcMatrix(rows), 0.3, 5)
        assert entry(noisy, 1, 3) is None and entry(noisy, 3, 1) is None
        assert entry(noisy, 1, 2) is not None

    def test_negative_noise_rejected(self):
        matrix, _ = generate_consistent(4, 1)
        with pytest.raises(ValueError):
            perturb(matrix, -0.1, 0)

    @pytest.mark.parametrize("level", [math.nan, math.inf, -math.inf])
    def test_non_finite_noise_rejected(self, level):
        matrix, _ = generate_consistent(4, 1)
        with pytest.raises(ValueError, match="finite"):
            perturb(matrix, level, 0)


class TestRunExperiment:
    def test_zero_noise_trials_agree(self):
        config = ExperimentConfig(n=5, trials=25, noise_levels=(0.0,), reference_count=1, seed=3)
        records = run_experiment(config)
        assert len(records) == 25
        for record in records:
            assert record.both_solved
            assert record.distance <= 1e-8
            assert record.koczkodaj <= 1e-12

    def test_deterministic_records_and_csv(self, tmp_path):
        config = ExperimentConfig(
            n=5, trials=10, noise_levels=(0.0, 0.5), reference_count=2, seed=21
        )
        first = run_experiment(config)
        second = run_experiment(config)
        assert first == second
        path_a = tmp_path / "a.csv"
        path_b = tmp_path / "b.csv"
        write_csv(first, str(path_a))
        write_csv(second, str(path_b))
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_distance_grows_with_noise(self):
        config = ExperimentConfig(
            n=5, trials=60, noise_levels=(0.05, 0.8), reference_count=1, seed=17
        )
        low, high = summarize(run_experiment(config))
        assert low.mean_distance < high.mean_distance
        assert low.mean_koczkodaj < high.mean_koczkodaj

    def test_paired_matrices_across_levels(self):
        config = ExperimentConfig(
            n=4, trials=5, noise_levels=(0.1, 0.4), reference_count=1, seed=29
        )
        records = run_experiment(config)
        # the trial seed depends only on the trial index, not the noise level
        assert [r.seed for r in records[:5]] == [r.seed for r in records[5:]]

    def test_repeated_noise_level_repeats_records(self):
        config = ExperimentConfig(
            n=5, trials=4, noise_levels=(0.1, 0.1), reference_count=1, seed=31
        )
        records = run_experiment(config)
        assert len(records) == 8
        assert records[:4] == records[4:]
        assert [r.seed for r in records[:4]] == sorted({r.seed for r in records})

    @pytest.mark.parametrize("seed", [4, 34])
    def test_refused_levels_leave_the_other_levels_as_they_are(self, seed):
        config = ExperimentConfig(n=6, trials=3, noise_levels=(0.3, 709.78, 0.0, 300.0), reference_count=2, seed=seed)
        records = run_experiment(config)
        # at seed 34 `validate` refuses trial 1's 709.78 level, whose noise pushes an entry out of the
        # float range; the other 709.78 and 300 levels pass it and fail in the solve
        refused = []
        for trial in range(3):
            trial_seed = seed * _SEED_STRIDE + 2 * trial
            matrix, weights = generate_consistent(6, trial_seed)
            noisy = perturb(matrix, 709.78, trial_seed + 1)
            refused.append(not validate(Problem(noisy, {1: weights[0], 2: weights[1]})).ok)
        assert refused == [False, seed == 34, False]
        assert all(not r.both_solved and math.isnan(r.distance) for r in records[3:6] + records[9:])
        alone = run_experiment(ExperimentConfig(n=6, trials=3, noise_levels=(0.3, 0.0), reference_count=2, seed=seed))
        assert repr(records[:3] + records[6:9]) == repr(alone)
        assert all(r.both_solved for r in alone)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n=2, trials=5, noise_levels=(0.1,), reference_count=1, seed=0)
        with pytest.raises(ValueError):
            ExperimentConfig(n=5, trials=0, noise_levels=(0.1,), reference_count=1, seed=0)
        with pytest.raises(ValueError):
            ExperimentConfig(n=5, trials=5, noise_levels=(0.1,), reference_count=5, seed=0)
        with pytest.raises(ValueError):
            ExperimentConfig(n=5, trials=5, noise_levels=(-0.1,), reference_count=1, seed=0)
        for levels in [(), (math.nan,), (math.inf,), (0.1, math.nan), (0.2, math.inf)]:
            with pytest.raises(ValueError, match="noise level"):
                ExperimentConfig(n=5, trials=5, noise_levels=levels, reference_count=1, seed=0)


class TestCsvOutput:
    def test_format(self, tmp_path):
        config = ExperimentConfig(n=4, trials=3, noise_levels=(0.2,), reference_count=1, seed=5)
        records = run_experiment(config)
        path = tmp_path / "out.csv"
        write_csv(records, str(path))
        text = path.read_text(encoding="utf-8")
        lines = text.split("\n")
        assert lines[0] == "seed,n,noise,koczkodaj,distance,both_solved"
        assert lines[-1] == ""  # trailing newline, LF endings
        assert "\r" not in text
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[1] == "4"
        assert first[5] in ("true", "false")
        # numeric fields round-trip through float()
        float(first[2]), float(first[3]), float(first[4])

    def test_summary_handles_unsolved(self):
        # hand-built record list: one solved, one not
        from hrerank import TrialRecord

        records = [
            TrialRecord(seed=1, n=4, noise_level=0.5, koczkodaj=0.2, distance=0.1, both_solved=True),
            TrialRecord(seed=2, n=4, noise_level=0.5, koczkodaj=0.9, distance=math.nan, both_solved=False),
        ]
        summary = summarize(records)[0]
        assert summary.solved == 1
        assert summary.trials == 2
        assert summary.mean_distance == 0.1
