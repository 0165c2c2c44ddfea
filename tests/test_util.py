import csv

import numpy as np
import pytest

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


def csv_writer_rows(path, header, columns):
    # the writer every table had before values were formatted once per chunk:
    # csv.writer given each cell's Python value
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        columns = np.broadcast_arrays(*(np.asarray(c) for c in columns))
        w.writerows(zip(*(c.ravel().tolist() for c in columns)))


def assert_matches_csv_writer(tmp_path, header, columns):
    csv_writer_rows(tmp_path / "ref.csv", header, columns)
    write_csv(tmp_path / "new.csv", header, columns)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    return (tmp_path / "new.csv").read_text()


def test_write_csv_keeps_signed_zeros_and_nan_payloads_apart(tmp_path):
    # one chunk holding 0.0 and -0.0, which compare equal, and NaNs of three bit patterns
    nans = np.array([0x7FF8000000000000, 0x7FF8000000000001, -0x8000000000000],
                    dtype=np.int64).view(float)
    x = np.array([0.0, -0.0, 0.0, *nans, -0.0, nans[1], 1.0])
    text = assert_matches_csv_writer(tmp_path, ["i", "x"], [np.arange(x.size), x])
    assert [line.split(",")[1] for line in text.splitlines()[1:]] == \
        ["0.0", "-0.0", "0.0", "nan", "nan", "nan", "-0.0", "nan", "1.0"]


@pytest.mark.parametrize("rows", [CSV_CHUNK - 1, CSV_CHUNK, CSV_CHUNK + 1])
def test_write_csv_repeats_values_across_a_chunk_boundary(tmp_path, rows):
    # a constant column, one value that recurs every third row, and distinct rows
    x = np.where(np.arange(rows) % 3 == 0, 0.1, np.arange(rows) / 7.0)
    assert_matches_csv_writer(tmp_path, ["c", "x", "i"],
                              [np.full(rows, -2.5), x, np.arange(rows) - 10])


def test_write_csv_quotes_labels_as_csv_writer(tmp_path):
    # plain criterion labels as in sums.csv, and labels that need quoting
    labels = ["schur_l1_lp", "a,b", 'say "x"', "two\nlines", "sup_entry"]
    text = assert_matches_csv_writer(
        tmp_path, ["criterion", "radius", "value"],
        [labels, np.array([10, 20])[:, None], np.arange(10.0).reshape(2, 5) / 3])
    assert text.startswith('criterion,radius,value\nschur_l1_lp,10,0.0\n"a,b",10,')


def test_write_csv_broadcasts_a_scalar_column(tmp_path):
    text = assert_matches_csv_writer(tmp_path, ["x", "tag", "flag"],
                                     [np.linspace(-1.0, 1.0, 9), 7, True])
    assert text.splitlines()[1] == "-1.0,7,True"


def test_write_csv_of_zero_rows_writes_the_header_only(tmp_path):
    text = assert_matches_csv_writer(tmp_path, ["row", "col", "re", "im"],
                                     [np.zeros(0, int), np.zeros(0, int), np.zeros(0), np.zeros(0)])
    assert text == "row,col,re,im\n"


def test_write_csv_of_runs_of_uneven_sizes(tmp_path):
    # empty, single-row and multi-chunk runs of rows drawn one run at a time, with a
    # label and shared values, in one table whose run ends fall inside chunks
    rng = np.random.default_rng(1)
    sizes = [0, 1, 3, CSV_CHUNK + 5, 0, 2 * CSV_CHUNK - 1, 2]
    q, x = (np.concatenate(c) for c in zip(*[(rng.integers(-3, 3, size=n) * 0.25,
                                              rng.normal(size=n)) for n in sizes]))
    text = assert_matches_csv_writer(tmp_path, ["i", "q", "x", "label"],
                                     [np.arange(q.size), q, x, "block"])
    assert len(text.splitlines()) == 1 + sum(sizes)


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
