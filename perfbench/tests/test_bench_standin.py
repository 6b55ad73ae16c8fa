import numpy as np

import standin
from qkad import data


def test_same_seed_gives_byte_identical_output():
    first = standin.render(3)
    assert standin.render(3) == first
    assert standin.render(4) != first


def test_stand_in_parses_to_the_sampled_values(tmp_path):
    path = tmp_path / "fraud.csv"
    size = standin.write(5, path)
    assert size == path.stat().st_size
    assert 75e6 < size < 90e6  # the shape of the public file at six decimals

    dataset = data.load_fraud_csv(path)
    _, features, _, labels = standin.sample(5)
    assert dataset.n_points == standin.ROWS
    assert dataset.n_anomalies == standin.FRAUDS
    assert np.array_equal(dataset.labels, labels)
    assert np.max(np.abs(dataset.features - features)) <= 5e-7 + 1e-12


def test_cells_match_printf_formatting():
    values = np.array([[0.0, -0.0000004, -0.0000006, 12.3456789, -99.5, 7.0]])
    cells = standin._fixed_cells(values, 6)
    text = bytes(cells[cells != 0]).decode()
    assert text == "0.000000,0.000000,-0.000001,12.345679,-99.500000,7.000000,"
