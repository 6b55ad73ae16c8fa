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


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------


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
    """What loading ``path`` gives: the exact arrays, or the exception type and message."""
    try:
        loaded = load_fraud_csv(path)
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
        (lambda lines: lines[0] + "\n", EmptyFileError),
        (lambda lines: "\n".join(lines[:2] + ["1.0,2.0"] + lines[2:]) + "\n", MissingColumnError),
        (class_before_amount, Dataset),
        (lambda lines: class_before_amount(lines, short_row=True), MissingColumnError),
    ],
    ids=[
        "underscore", "arabic-digit", "bom-header", "Infinity", "1e400", "hex-float", "hash",
        "empty-cell", "whitespace-line", "blank-line", "padded", "tab-padded", "quoted", "crlf",
        "trailing-comma", "extra-column", "class-1.0", "class-quoted-space", "class-1e0",
        "class-2", "header-only", "short-row", "class-before-amount",
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
        checked = load_fraud_csv(path)
    monkeypatch.setattr(data, "_parse_rows_checked", no_checked_loop)
    fast = load_fraud_csv(path)
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
    loaded = load_fraud_csv(path)
    assert np.array_equal(loaded.features, np.array([row[1:29] for row in rows], dtype=float))
    assert loaded.labels.tolist() == [0, 1, 0, 1, 0]


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


def test_split_insufficient_points(rng):
    pool = make_pool(30, 1, rng)
    with pytest.raises(ValueError, match="normal"):
        make_split(pool, SplitSpec(train_size=40, test_size=10, test_anomaly_ratio=0.0), rng)
    with pytest.raises(ValueError, match="anomal"):
        make_split(pool, SplitSpec(train_size=10, test_size=10, test_anomaly_ratio=0.5), rng)


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
