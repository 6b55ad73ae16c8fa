import logging
import os
import stat
import warnings

import numpy as np
import pytest

from qkad import data
from qkad.data import (
    EmptyFileError,
    FRAUD_HEADER,
    MissingColumnError,
    NonNumericCellError,
    SplitSpec,
    Dataset,
    generate_synthetic,
    load_fraud_csv,
    make_split,
)


def write_fraud_csv(path, rows):
    lines = [",".join(FRAUD_HEADER)]
    lines += [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def fraud_row(rng, label):
    return [0.0, *rng.normal(size=28).round(4), 12.5, label]


def write_small_fraud_csv(path):
    """200 normal and 10 fraud rows from one seeded stream, the CLI tests' fraud CSV."""
    rng = np.random.default_rng(0)
    rows = [fraud_row(rng, 0) for _ in range(200)] + [fraud_row(rng, 1) for _ in range(10)]
    write_fraud_csv(path, rows)


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "train_size, test_size, ratio, message",
    [(0, 10, 0.3, "train_size and test_size"), (10, 0, 0.3, "train_size and test_size"),
     (10, 10, -0.1, "test_anomaly_ratio"), (10, 10, 1.5, "test_anomaly_ratio")],
)
def test_split_spec_rejects_empty_sets_and_ratios_outside_0_1(train_size, test_size, ratio,
                                                              message):
    with pytest.raises(ValueError, match=message):
        SplitSpec(train_size=train_size, test_size=test_size, test_anomaly_ratio=ratio)


def test_split_spec_accepts_one_point_sets():
    spec = SplitSpec(train_size=1, test_size=1, test_anomaly_ratio=0.0)
    assert (spec.train_size, spec.test_size, spec.test_anomaly_count) == (1, 1, 0)


def test_synthetic_train_is_normal_only():
    train, test = generate_synthetic(
        SplitSpec(train_size=200, test_size=125, test_anomaly_ratio=0.3),
        np.random.default_rng(0),
    )
    assert train.n_points == 200
    assert train.n_anomalies == 0
    assert train.features.shape == (200, 2)


def test_synthetic_test_counts_default_protocol():
    _, test = generate_synthetic(
        SplitSpec(train_size=100, test_size=125, test_anomaly_ratio=0.3),
        np.random.default_rng(0),
    )
    assert test.n_points == 125
    assert test.n_anomalies == 37  # floor(0.3 * 125)


def test_synthetic_bit_identical_given_seed():
    spec = SplitSpec(train_size=50, test_size=40, test_anomaly_ratio=0.3)
    a_train, a_test = generate_synthetic(spec, np.random.default_rng(5))
    b_train, b_test = generate_synthetic(spec, np.random.default_rng(5))
    assert np.array_equal(a_train.features, b_train.features)
    assert np.array_equal(a_test.features, b_test.features)
    assert np.array_equal(a_test.labels, b_test.labels)


def test_synthetic_anomalies_inside_box():
    _, test = generate_synthetic(
        SplitSpec(train_size=50, test_size=100, test_anomaly_ratio=0.5),
        np.random.default_rng(1),
    )
    anomalies = test.features[test.labels == 1]
    assert np.all((anomalies >= -4.0) & (anomalies <= 4.0))


# ---------------------------------------------------------------------------
# fraud CSV
# ---------------------------------------------------------------------------


def test_fraud_csv_three_row_fixture(tmp_path):
    rng = np.random.default_rng(0)
    rows = [fraud_row(rng, 0), fraud_row(rng, 1), fraud_row(rng, 0)]
    path = tmp_path / "fraud.csv"
    write_fraud_csv(path, rows)
    data = load_fraud_csv(path)
    assert data.features.shape == (3, 28)
    assert data.labels.tolist() == [0, 1, 0]
    expected = np.array([row[1:29] for row in rows], dtype=float)
    assert np.array_equal(data.features, expected)


def test_fraud_csv_missing_cell_names_row_and_column(tmp_path):
    rng = np.random.default_rng(0)
    row = fraud_row(rng, 0)
    row[7] = ""  # V7 sits at index 7 (after Time)
    path = tmp_path / "fraud.csv"
    write_fraud_csv(path, [fraud_row(rng, 0), row])
    with pytest.raises(NonNumericCellError, match=r"row 3.*V7"):
        load_fraud_csv(path)


@pytest.mark.parametrize("cell", ["0.7", "1.5", "2", "-1", "nan"])
def test_fraud_csv_rejects_label_other_than_zero_or_one(tmp_path, cell):
    rng = np.random.default_rng(0)
    row = fraud_row(rng, 0)
    row[-1] = cell
    path = tmp_path / "fraud.csv"
    write_fraud_csv(path, [fraud_row(rng, 1), fraud_row(rng, 0), row])
    expected = rf"row 4, column Class: label must be 0 or 1, got '{cell}'"
    with pytest.raises(ValueError, match=expected):
        load_fraud_csv(path)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_fraud_csv_nonfinite_cell_names_row_and_column(tmp_path, cell):
    rng = np.random.default_rng(0)
    row = fraud_row(rng, 0)
    row[12] = cell  # V12
    path = tmp_path / "fraud.csv"
    write_fraud_csv(path, [fraud_row(rng, 0), fraud_row(rng, 1), row, fraud_row(rng, 0)])
    with pytest.raises(NonNumericCellError, match=r"row 4, column V12: value .* is not finite"):
        load_fraud_csv(path)


def test_fraud_csv_blank_lines_do_not_shift_reported_row(tmp_path):
    rng = np.random.default_rng(0)
    lines = [",".join(FRAUD_HEADER), ",".join(str(v) for v in fraud_row(rng, 0)), ""]
    row = fraud_row(rng, 0)
    row[1] = "inf"  # V1
    lines.append(",".join(str(v) for v in row))
    path = tmp_path / "fraud.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(NonNumericCellError, match=r"row 4, column V1:"):
        load_fraud_csv(path)


def test_fraud_csv_missing_header_column(tmp_path):
    path = tmp_path / "fraud.csv"
    header = ",".join(c for c in FRAUD_HEADER if c != "V7")
    path.write_text(header + "\n")
    with pytest.raises(MissingColumnError, match="V7"):
        load_fraud_csv(path)


def test_fraud_csv_short_row(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "fraud.csv"
    good = ",".join(str(v) for v in fraud_row(rng, 0))
    path.write_text(",".join(FRAUD_HEADER) + "\n" + good + "\n" + "1.0,2.0\n")
    with pytest.raises(MissingColumnError, match="row 3"):
        load_fraud_csv(path)


def test_fraud_csv_empty_file(tmp_path):
    path = tmp_path / "fraud.csv"
    path.write_text("")
    with pytest.raises(EmptyFileError):
        load_fraud_csv(path)


def test_fraud_csv_quoted_header_accepted(tmp_path):
    rng = np.random.default_rng(0)
    header = ",".join(f'"{c}"' for c in FRAUD_HEADER)
    body = ",".join(str(v) for v in fraud_row(rng, 1))
    path = tmp_path / "fraud.csv"
    path.write_text(header + "\n" + body + "\n")
    data = load_fraud_csv(path)
    assert data.n_points == 1 and data.n_anomalies == 1


def load_outcome(path):
    """What parsing ``path`` gives: the exact arrays, or the exception type and message.

    It parses with no parse cache, so a second call on the same file parses again.
    """
    try:
        loaded = data._parse_fraud_csv(path)
    except Exception as exc:  # any outcome is compared, including unexpected ones
        return type(exc), str(exc)
    return Dataset, loaded.features.shape, loaded.features.tobytes(), loaded.labels.tobytes()


def assert_paths_agree(path, monkeypatch):
    """The fast parse and the checked row loop give the same outcome; return it."""
    fast = load_outcome(path)
    with monkeypatch.context() as patched:
        patched.setattr(data, "_parse_rows_fast", lambda *args: None)
        checked = load_outcome(path)
    assert fast == checked
    return fast


def fraud_lines(rng, rows=3):
    return [",".join(FRAUD_HEADER)] + [
        ",".join(str(v) for v in fraud_row(rng, i % 2)) for i in range(rows)
    ]


def with_cell(column, cell):
    def edit(lines):
        pos = FRAUD_HEADER.index(column)
        fields = lines[2].split(",")
        fields[pos] = cell
        lines[2] = ",".join(fields)
        return "\n".join(lines) + "\n"

    return edit


def class_before_amount(lines, short_row=False):
    # Class is not the last column, so only the header's width marks a short row
    swapped = [",".join([*f[:-2], f[-1], f[-2]]) for f in (line.split(",") for line in lines)]
    if short_row:
        swapped[2] = swapped[2].rsplit(",", 1)[0]
    return "\n".join(swapped) + "\n"


def no_checked_loop(*args):
    raise AssertionError("the checked loop ran on a clean file")


@pytest.mark.parametrize(
    "edit, expected",
    [
        # float() reads these and numpy does not: the loop must return the table
        (with_cell("V5", "1_0"), Dataset),
        (with_cell("V5", "\u0661"), Dataset),  # ARABIC-INDIC DIGIT ONE
        (lambda lines: "\ufeff" + "\n".join(lines) + "\n", MissingColumnError),
        # numpy reads these as inf
        (with_cell("V5", "Infinity"), NonNumericCellError),
        (with_cell("V5", "1e400"), NonNumericCellError),
        (with_cell("V5", "0x1p3"), NonNumericCellError),
        (with_cell("V5", "1#2"), NonNumericCellError),
        (with_cell("V5", ""), NonNumericCellError),
        (lambda lines: "\n".join(lines[:2] + ["   "] + lines[2:]) + "\n", MissingColumnError),
        (lambda lines: "\n".join(lines[:2] + [""] + lines[2:]) + "\n", Dataset),
        (with_cell("V5", " 1.5 "), Dataset),
        (with_cell("V5", "\t1.5\t"), Dataset),
        (with_cell("V5", '"1.5"'), Dataset),
        (lambda lines: "\r\n".join(lines) + "\r\n", Dataset),
        (lambda lines: "\n".join(line + "," for line in lines) + "\n", Dataset),
        (lambda lines: "\n".join(lines[:2] + [lines[2] + ",7.0"] + lines[3:]) + "\n", Dataset),
        (with_cell("Class", "1.0"), Dataset),
        (with_cell("Class", '" 1"'), Dataset),
        (with_cell("Class", "1e0"), Dataset),
        (with_cell("Class", "2"), ValueError),
        (with_cell("Class", "x"), NonNumericCellError),
        (lambda lines: lines[0] + "\n", EmptyFileError),
        (lambda lines: "\n".join(lines[:2] + ["1.0,2.0"] + lines[2:]) + "\n", MissingColumnError),
        (class_before_amount, Dataset),
        (lambda lines: class_before_amount(lines, short_row=True), MissingColumnError),
    ],
    ids=[
        "underscore", "arabic-digit", "bom-header", "Infinity", "1e400", "hex-float", "hash",
        "empty-cell", "whitespace-line", "blank-line", "padded", "tab-padded", "quoted", "crlf",
        "trailing-comma", "extra-column", "class-1.0", "class-quoted-space", "class-1e0",
        "class-2", "class-x", "header-only", "short-row", "class-before-amount",
        "class-before-amount-short-row",
    ],
)
def test_fraud_csv_fast_parse_agrees_with_checked_loop(tmp_path, monkeypatch, edit, expected):
    path = tmp_path / "fraud.csv"
    path.write_text(edit(fraud_lines(np.random.default_rng(0))), newline="")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a header-only file must not leak numpy's warning
        outcome = assert_paths_agree(path, monkeypatch)
    assert outcome[0] is expected


def test_fraud_csv_decimal_strings_parse_bit_equal_on_both_paths(tmp_path, monkeypatch):
    # up to 17 significant digits, which round-trips any double, with and
    # without a decimal point, a sign and an exponent
    rng = np.random.default_rng(11)
    lines = [",".join(FRAUD_HEADER)]
    for i in range(300):
        cells = ["0"]
        for _ in range(28):
            digits = "".join(map(str, rng.integers(0, 10, size=rng.integers(1, 18))))
            point = rng.integers(0, len(digits) + 1)
            cell = digits[:point] + "." + digits[point:] if rng.random() < 0.8 else digits
            if cell == ".":
                cell = "0."
            if rng.random() < 0.5:
                cell = "-" + cell
            if rng.random() < 0.3:
                # down into subnormals, never up to inf
                cell += f"e{rng.integers(-330, 290)}"
            cells.append(cell)
        lines.append(",".join([*cells, "1.0", str(i % 2)]))
    path = tmp_path / "fraud.csv"
    path.write_text("\n".join(lines) + "\n")
    with monkeypatch.context() as patched:
        patched.setattr(data, "_parse_rows_fast", lambda *args: None)
        checked = data._parse_fraud_csv(path)
    monkeypatch.setattr(data, "_parse_rows_checked", no_checked_loop)
    fast = data._parse_fraud_csv(path)
    assert fast.features.shape == (300, 28)
    assert fast.features.tobytes() == checked.features.tobytes()
    assert fast.labels.tobytes() == checked.labels.tobytes()


def test_fraud_csv_clean_file_never_runs_the_checked_loop(tmp_path, monkeypatch):
    # guards the fast parse: a fallback that always fires would pass every
    # other test while parsing at the loop's speed
    monkeypatch.setattr(data, "_parse_rows_checked", no_checked_loop)
    rng = np.random.default_rng(0)
    rows = [fraud_row(rng, i % 2) for i in range(5)]
    path = tmp_path / "fraud.csv"
    write_fraud_csv(path, rows)
    loaded = data._parse_fraud_csv(path)
    assert np.array_equal(loaded.features, np.array([row[1:29] for row in rows], dtype=float))
    assert loaded.labels.tolist() == [0, 1, 0, 1, 0]


# ---------------------------------------------------------------------------
# fraud CSV parse cache
# ---------------------------------------------------------------------------


def sidecar_of(path):
    return path.with_name(path.name + ".qkad.npz")


def no_parse(*args):
    raise AssertionError("the CSV was parsed")


def count_parses(monkeypatch):
    calls = []
    parse = data._parse_fraud_csv

    def counted(path):
        calls.append(path)
        return parse(path)

    monkeypatch.setattr(data, "_parse_fraud_csv", counted)
    return calls


def cached_fraud_csv(tmp_path, rows=6):
    rng = np.random.default_rng(3)
    path = tmp_path / "fraud.csv"
    write_fraud_csv(path, [fraud_row(rng, i % 2) for i in range(rows)])
    return path


def test_fraud_csv_cache_hit_returns_identical_arrays_without_parsing(tmp_path, monkeypatch):
    path = cached_fraud_csv(tmp_path)
    parsed = load_fraud_csv(path)
    assert sidecar_of(path).is_file()
    monkeypatch.setattr(data, "_parse_rows_fast", no_parse)
    monkeypatch.setattr(data, "_parse_rows_checked", no_parse)
    cached = load_fraud_csv(path)
    for got, want in ((cached.features, parsed.features), (cached.labels, parsed.labels)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_fraud_csv_cache_takes_one_digest_per_load(tmp_path, monkeypatch):
    path = cached_fraud_csv(tmp_path)
    digests = []
    digest = data._file_digest
    monkeypatch.setattr(data, "_file_digest", lambda p: digests.append(p) or digest(p))
    load_fraud_csv(path)  # miss
    load_fraud_csv(path)  # hit
    assert digests == [path, path]


def test_fraud_csv_cache_is_keyed_by_content_not_size_or_mtime(tmp_path):
    path = cached_fraud_csv(tmp_path)
    before = load_fraud_csv(path)
    old = path.stat()
    lines = path.read_text().splitlines()
    fields = lines[2].split(",")
    pos = FRAUD_HEADER.index("V5")
    fields[pos] = fields[pos][:-1] + ("7" if fields[pos][-1] != "7" else "3")
    lines[2] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    os.utime(path, ns=(old.st_atime_ns, old.st_mtime_ns))
    assert path.stat().st_size == old.st_size and path.stat().st_mtime_ns == old.st_mtime_ns

    after = load_fraud_csv(path)
    assert after.features[1, 4] == float(fields[pos]) != before.features[1, 4]
    assert np.array_equal(np.delete(after.features, 1, 0), np.delete(before.features, 1, 0))
    assert np.array_equal(after.features, data._parse_fraud_csv(path).features)


def rewrite_sidecar(**arrays):
    def corrupt(sidecar):
        with np.load(sidecar) as stored:
            contents = {key: stored[key] for key in stored.files}
        contents.update(arrays)
        np.savez(sidecar, **{k: v for k, v in contents.items() if v is not None})

    return corrupt


def lone_npy(sidecar):
    with sidecar.open("wb") as handle:
        np.save(handle, np.zeros((6, 28)))


def truncate(sidecar):
    sidecar.write_bytes(sidecar.read_bytes()[: sidecar.stat().st_size // 2])


@pytest.mark.parametrize(
    "corrupt",
    [
        truncate,
        lambda sidecar: sidecar.write_bytes(b""),
        lambda sidecar: sidecar.write_bytes(b"not an archive"),
        lone_npy,
        rewrite_sidecar(format=np.array("qkad-fraud-csv-0")),
        rewrite_sidecar(format=np.array(1)),
        rewrite_sidecar(digest=np.array("0" * 64)),
        rewrite_sidecar(extra=np.zeros(1)),
        rewrite_sidecar(labels=None),
        rewrite_sidecar(features=np.zeros((6, 28), dtype=np.float32)),
        rewrite_sidecar(features=np.zeros((6, 27))),
        rewrite_sidecar(labels=np.zeros(5, dtype=np.int64)),
        rewrite_sidecar(labels=np.full(6, 2, dtype=np.int64)),
        rewrite_sidecar(features=np.full((6, 28), np.nan)),
    ],
    ids=[
        "truncated", "empty", "garbage", "lone-npy", "old-format", "numeric-format",
        "stale-digest", "extra-key", "missing-key", "float32", "narrow", "short-labels",
        "bad-labels", "nan-features",
    ],
)
def test_fraud_csv_bad_sidecar_is_reparsed_and_rewritten(tmp_path, monkeypatch, corrupt):
    path = cached_fraud_csv(tmp_path)
    expected = load_fraud_csv(path)
    corrupt(sidecar_of(path))
    parses = count_parses(monkeypatch)
    reloaded = load_fraud_csv(path)
    assert parses == [path]
    assert reloaded.features.tobytes() == expected.features.tobytes()
    assert reloaded.labels.tobytes() == expected.labels.tobytes()

    monkeypatch.setattr(data, "_parse_fraud_csv", no_parse)  # rewritten, so now a hit
    assert load_fraud_csv(path).features.tobytes() == expected.features.tobytes()


def test_fraud_csv_cache_file_mode_follows_the_umask(tmp_path):
    path = cached_fraud_csv(tmp_path)
    old = os.umask(0o027)
    try:
        load_fraud_csv(path)
    finally:
        os.umask(old)
    assert stat.S_IMODE(sidecar_of(path).stat().st_mode) == 0o640


def refuse_temp(sidecar):
    raise PermissionError(13, "Permission denied", str(sidecar) + ".tmp")


def fail_write(handle, **arrays):
    handle.write(b"partial")
    raise OSError(28, "No space left on device")


@pytest.mark.parametrize("target, fail", [("_create_temp", refuse_temp), ("_save_npz", fail_write)])
def test_fraud_csv_failed_cache_write_still_loads_and_leaves_nothing(
    tmp_path, monkeypatch, caplog, target, fail
):
    path = cached_fraud_csv(tmp_path)
    expected = data._parse_fraud_csv(path)
    monkeypatch.setattr(data, target, fail)
    with caplog.at_level(logging.WARNING, logger="qkad.data"):
        loaded = load_fraud_csv(path)
    assert loaded.features.tobytes() == expected.features.tobytes()
    assert loaded.labels.tobytes() == expected.labels.tobytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fraud.csv"]
    warnings_logged = [r for r in caplog.records if r.levelno >= logging.WARNING]
    assert len(warnings_logged) == 1
    assert "parse cache" in warnings_logged[0].getMessage()


def test_fraud_csv_changed_during_the_parse_is_not_cached(tmp_path, monkeypatch):
    path = cached_fraud_csv(tmp_path)
    parse = data._parse_fraud_csv

    def parse_then_touch(p):
        parsed = parse(p)
        st = p.stat()
        os.utime(p, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
        return parsed

    monkeypatch.setattr(data, "_parse_fraud_csv", parse_then_touch)
    load_fraud_csv(path)
    assert not sidecar_of(path).exists()


def test_fraud_csv_pipes_are_not_cached(tmp_path):
    # hashing a pipe would consume the input the parse needs
    fifo = tmp_path / "fraud.pipe"
    os.mkfifo(fifo)
    assert data._regular_file_state(fifo) is None
    assert data._regular_file_state(cached_fraud_csv(tmp_path)) is not None


def header_only(path):
    path.write_text(",".join(FRAUD_HEADER) + "\n")


def with_row_cell(column, cell):
    def write(path):
        rng = np.random.default_rng(0)
        rows = [fraud_row(rng, 0), fraud_row(rng, 1), fraud_row(rng, 0)]
        rows[1][FRAUD_HEADER.index(column)] = cell
        write_fraud_csv(path, rows)

    return write


@pytest.mark.parametrize(
    "make, error, message",
    [
        (None, FileNotFoundError, "[Errno 2] No such file or directory: '{path}'"),
        (with_row_cell("Class", "2"), ValueError,
         "{path}: row 3, column Class: label must be 0 or 1, got '2'"),
        (with_row_cell("V5", "nan"), NonNumericCellError,
         "{path}: row 3, column V5: value nan is not finite"),
        (header_only, EmptyFileError, "{path}: no data rows"),
    ],
    ids=["missing-file", "bad-label", "nan-cell", "header-only"],
)
def test_fraud_csv_that_raises_is_never_cached(tmp_path, make, error, message):
    path = tmp_path / "fraud.csv"
    if make is not None:
        make(path)
    for _ in range(2):
        with pytest.raises(error) as exc:
            load_fraud_csv(path)
        assert type(exc.value) is error
        assert str(exc.value) == message.format(path=path)
    assert not sidecar_of(path).exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ([] if make is None else ["fraud.csv"])


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------


def make_pool(n_normal, n_anomaly, rng):
    features = rng.normal(size=(n_normal + n_anomaly, 4))
    labels = np.concatenate([np.zeros(n_normal, np.int64), np.ones(n_anomaly, np.int64)])
    return Dataset(features=features, labels=labels)


def test_split_fraud_protocol_counts(rng):
    pool = make_pool(800, 30, rng)
    spec = SplitSpec(train_size=500, test_size=125, test_anomaly_ratio=0.05)
    train, test = make_split(pool, spec, rng)
    assert train.n_points == 500 and train.n_anomalies == 0
    assert test.n_points == 125 and test.n_anomalies == 6  # floor(0.05 * 125)


def test_split_train_test_disjoint(rng):
    pool = make_pool(100, 20, rng)
    spec = SplitSpec(train_size=40, test_size=30, test_anomaly_ratio=0.3)
    train, test = make_split(pool, spec, rng)
    train_keys = {tuple(row) for row in train.features}
    test_keys = {tuple(row) for row in test.features}
    assert not train_keys & test_keys


def test_split_seeds_differ():
    pool = make_pool(100, 20, np.random.default_rng(0))
    spec = SplitSpec(train_size=40, test_size=30, test_anomaly_ratio=0.3)
    a, _ = make_split(pool, spec, np.random.default_rng(0))
    b, _ = make_split(pool, spec, np.random.default_rng(1))
    assert not np.array_equal(a.features, b.features)


def test_split_draws_random_anomalies_and_shuffles_the_test_set():
    # feature 0 holds each point's pool index; anomalies are pool rows 100-119
    pool = make_pool(100, 20, np.random.default_rng(0))
    pool = Dataset(features=np.column_stack([np.arange(120.0), pool.features[:, 1:]]),
                   labels=pool.labels)
    spec = SplitSpec(train_size=40, test_size=30, test_anomaly_ratio=0.3)
    picked, tails = set(), []
    for seed in range(5):
        _, test = make_split(pool, spec, np.random.default_rng(seed))
        anomalies = test.features[test.labels == 1, 0].astype(int)
        assert len(anomalies) == 9 and set(anomalies) <= set(range(100, 120))
        picked.add(frozenset(anomalies))
        tails.append(test.labels[-9:].all())
    # five draws of 9 of the 20 anomalies, never always the first nine
    assert len(picked) == 5 and frozenset(range(100, 109)) not in picked
    # shuffled: the anomalies are not appended after the normal points
    assert not any(tails)


def test_split_insufficient_points(rng):
    pool = make_pool(30, 1, rng)
    with pytest.raises(ValueError, match="normal"):
        make_split(pool, SplitSpec(train_size=40, test_size=10, test_anomaly_ratio=0.0), rng)
    with pytest.raises(ValueError, match="anomal"):
        make_split(pool, SplitSpec(train_size=10, test_size=10, test_anomaly_ratio=0.5), rng)


def test_split_uses_every_normal_point_when_there_are_just_enough(rng):
    # 40 training and 7 normal test points from exactly 47 normal points
    pool = make_pool(47, 3, rng)
    spec = SplitSpec(train_size=40, test_size=10, test_anomaly_ratio=0.3)
    train, test = make_split(pool, spec, rng)
    normal = np.concatenate([train.features, test.features[test.labels == 0]])
    assert len(normal) == 47 and len(np.unique(normal, axis=0)) == 47
    assert test.n_anomalies == 3


def test_dataset_validation():
    with pytest.raises(ValueError, match="labels"):
        Dataset(features=np.ones((3, 2)), labels=np.array([0, 1, 2]))
    with pytest.raises(ValueError, match="finite"):
        Dataset(features=np.array([[np.inf, 0.0]]), labels=np.array([0]))


@pytest.mark.parametrize(
    "label, shown", [(0.5, "0.5"), (1.9, "1.9"), (np.nan, "nan"), (2, "2")]
)
def test_dataset_rejects_a_label_other_than_0_or_1_before_the_cast(label, shown):
    # the raw value is checked, so 0.5 and 1.9 are not truncated to 0 and 1 and
    # NaN fails with this message, not the cast's RuntimeWarning
    message = f"labels must be 0 (normal) or 1 (anomaly), got {shown} at index 1"
    with pytest.raises(ValueError) as exc:
        Dataset(features=np.zeros((3, 2)), labels=np.array([0, label, 1]))
    assert str(exc.value) == message
