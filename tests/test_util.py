import csv

import numpy as np

from lattice_pdo._util import CSV_CHUNK, write_csv

SPECIAL = [-0.0, 5e-324, 1e-05, 1e16, np.nan, np.inf, -np.inf]


def per_row_csv(path, header, index, x, v):
    # the per-row loop the CLI, kernel and fourier exports each carried before
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for i in range(len(index)):
            w.writerow([int(index[i]), repr(float(x[i])),
                        repr(float(v[i].real)), repr(float(v[i].imag))])


def test_write_csv_matches_per_row_repr(tmp_path):
    # special values in a float64 column and in both parts of a complex one,
    # over more rows than two chunks
    rng = np.random.default_rng(0)
    n = 2 * CSV_CHUNK + 7
    x = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
    v = np.empty(n, dtype=complex)
    v.real = rng.normal(size=n)
    v.imag = rng.normal(size=n) * 1e-12
    for j, special in enumerate(SPECIAL):
        x[j] = special
        v.real[len(SPECIAL) + j] = special
        v.imag[-1 - j] = special
    index = np.arange(n) - 3
    header = ["index", "x", "re", "im"]
    per_row_csv(tmp_path / "ref.csv", header, index, x, v)
    write_csv(tmp_path / "new.csv", header, [index, x, v.real, v.imag])
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_write_csv_broadcasts_in_row_major_order(tmp_path):
    k = np.array([0.5, -1.0, 2.0])
    m = np.array([1, 2, 3, 4])
    values = np.arange(12.0).reshape(3, 4)
    write_csv(tmp_path / "t.csv", ["k", "m", "v", "tag"], [k[:, None], m[None, :], values, 7])
    lines = (tmp_path / "t.csv").read_text().splitlines()
    assert lines[0] == "k,m,v,tag"
    assert lines[1:] == [f"{float(k[i])!r},{m[j]},{float(values[i, j])!r},7"
                         for i in range(3) for j in range(4)]
