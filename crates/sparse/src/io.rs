//! MatrixMarket coordinate-format IO.
//!
//! Supports the subset the SuiteSparse collection uses for the paper's
//! benchmark matrices: `matrix coordinate real
//! {general|symmetric|skew-symmetric}` and `pattern` variants (pattern
//! entries get value 1.0). Symmetric files store only the lower triangle
//! (diagonal included) and the reader mirrors it; skew-symmetric files
//! store only the *strictly* lower triangle and the reader mirrors with
//! negation. Entries in the upper triangle of a symmetric/skew file are
//! rejected: mirroring them would create duplicates that `to_csr` then
//! sums, silently corrupting the matrix.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::Path;

use crate::formats::{CooMatrix, CsrMatrix};

/// Error from MatrixMarket parsing.
#[derive(Debug)]
pub enum MmError {
    Io(io::Error),
    Parse(String),
}

impl std::fmt::Display for MmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MmError::Io(e) => write!(f, "io error: {e}"),
            MmError::Parse(m) => write!(f, "matrix market parse error: {m}"),
        }
    }
}

impl std::error::Error for MmError {}

impl From<io::Error> for MmError {
    fn from(e: io::Error) -> Self {
        MmError::Io(e)
    }
}

fn parse_err(msg: impl Into<String>) -> MmError {
    MmError::Parse(msg.into())
}

/// Symmetry qualifier of a MatrixMarket file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MmSymmetry {
    /// Every entry stored explicitly.
    General,
    /// Lower triangle stored (diagonal included); `a[j][i] = a[i][j]`.
    Symmetric,
    /// Strictly lower triangle stored; `a[j][i] = -a[i][j]`, zero diagonal.
    SkewSymmetric,
}

impl MmSymmetry {
    fn header_name(self) -> &'static str {
        match self {
            MmSymmetry::General => "general",
            MmSymmetry::Symmetric => "symmetric",
            MmSymmetry::SkewSymmetric => "skew-symmetric",
        }
    }
}

/// Read a MatrixMarket matrix from any reader.
pub fn read_matrix_market<R: Read>(reader: R) -> Result<CsrMatrix, MmError> {
    let mut lines = BufReader::new(reader).lines();

    let header = lines.next().ok_or_else(|| parse_err("empty file"))??;
    let h: Vec<&str> = header.split_whitespace().collect();
    if h.len() < 5 || !h[0].eq_ignore_ascii_case("%%MatrixMarket") {
        return Err(parse_err(format!("bad header: {header}")));
    }
    if !h[1].eq_ignore_ascii_case("matrix") || !h[2].eq_ignore_ascii_case("coordinate") {
        return Err(parse_err("only 'matrix coordinate' is supported"));
    }
    let field = h[3].to_ascii_lowercase();
    if !matches!(field.as_str(), "real" | "integer" | "pattern") {
        return Err(parse_err(format!("unsupported field type: {field}")));
    }
    let symmetry = h[4].to_ascii_lowercase();
    let symmetry = match symmetry.as_str() {
        "general" => MmSymmetry::General,
        "symmetric" => MmSymmetry::Symmetric,
        "skew-symmetric" => MmSymmetry::SkewSymmetric,
        other => return Err(parse_err(format!("unsupported symmetry: {other}"))),
    };
    let pattern = field == "pattern";
    if pattern && symmetry == MmSymmetry::SkewSymmetric {
        // A pattern has no signs to negate; the MM spec only allows
        // pattern with general/symmetric.
        return Err(parse_err("pattern matrices cannot be skew-symmetric"));
    }

    // Skip comments, find the size line.
    let size_line = loop {
        let line = lines.next().ok_or_else(|| parse_err("missing size line"))??;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        break line;
    };
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|t| t.parse().map_err(|_| parse_err(format!("bad size line: {size_line}"))))
        .collect::<Result<_, _>>()?;
    if dims.len() != 3 {
        return Err(parse_err(format!("bad size line: {size_line}")));
    }
    let (nrows, ncols, nnz) = (dims[0], dims[1], dims[2]);

    let mut coo = CooMatrix::new(nrows, ncols);
    let mirrored = symmetry != MmSymmetry::General;
    coo.entries.reserve(if mirrored { 2 * nnz } else { nnz });
    let mut seen = 0usize;
    for line in lines {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let r: usize = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| parse_err(format!("bad entry: {t}")))?;
        let c: usize = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| parse_err(format!("bad entry: {t}")))?;
        let v: f64 = if pattern {
            1.0
        } else {
            it.next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| parse_err(format!("bad entry: {t}")))?
        };
        if r == 0 || c == 0 || r > nrows || c > ncols {
            return Err(parse_err(format!("entry out of bounds: {t}")));
        }
        match symmetry {
            MmSymmetry::General => {}
            // Symmetric storage is *lower-triangle only*. An upper-triangle
            // entry would be mirrored into a duplicate of a stored lower
            // entry, which `to_csr` then sums — silently corrupting the
            // matrix — so it is a hard parse error.
            MmSymmetry::Symmetric => {
                if r < c {
                    return Err(parse_err(format!(
                        "symmetric file stores the lower triangle only; upper-triangle entry: {t}"
                    )));
                }
            }
            // Skew-symmetric storage is *strictly* lower: the diagonal of a
            // skew-symmetric matrix is identically zero and must not be
            // stored.
            MmSymmetry::SkewSymmetric => {
                if r <= c {
                    return Err(parse_err(format!(
                        "skew-symmetric file stores the strictly lower triangle only: {t}"
                    )));
                }
            }
        }
        // MatrixMarket is 1-based.
        coo.push(r - 1, c - 1, v);
        if r != c {
            match symmetry {
                MmSymmetry::General => {}
                MmSymmetry::Symmetric => coo.push(c - 1, r - 1, v),
                MmSymmetry::SkewSymmetric => coo.push(c - 1, r - 1, -v),
            }
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(parse_err(format!("expected {nnz} entries, found {seen}")));
    }
    Ok(coo.into_csr())
}

/// Read a MatrixMarket file from disk.
pub fn read_matrix_market_file(path: impl AsRef<Path>) -> Result<CsrMatrix, MmError> {
    read_matrix_market(std::fs::File::open(path)?)
}

/// Write a matrix in `matrix coordinate real general` format.
pub fn write_matrix_market<W: Write>(w: &mut W, a: &CsrMatrix) -> io::Result<()> {
    write_matrix_market_with(w, a, MmSymmetry::General)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))
}

/// Write a matrix in `matrix coordinate real <symmetry>` format.
///
/// For [`MmSymmetry::Symmetric`] only the lower triangle (diagonal
/// included) is stored; for [`MmSymmetry::SkewSymmetric`] only the
/// strictly lower triangle. The matrix is validated against the requested
/// symmetry first so that no information is silently dropped.
pub fn write_matrix_market_with<W: Write>(
    w: &mut W,
    a: &CsrMatrix,
    symmetry: MmSymmetry,
) -> Result<(), MmError> {
    if symmetry != MmSymmetry::General {
        if a.nrows != a.ncols {
            return Err(parse_err("symmetric output requires a square matrix"));
        }
        let skew = symmetry == MmSymmetry::SkewSymmetric;
        for i in 0..a.nrows {
            let (cols, vals) = a.row(i);
            for (c, v) in cols.iter().zip(vals) {
                let (j, v) = (*c as usize, *v);
                let mirror = if skew { -a.get(j, i) } else { a.get(j, i) };
                if mirror != v {
                    return Err(parse_err(format!(
                        "matrix is not {}: a[{i}][{j}] = {v} vs mirror {mirror}",
                        symmetry.header_name()
                    )));
                }
                if skew && i == j && v != 0.0 {
                    return Err(parse_err(format!(
                        "skew-symmetric matrix has nonzero diagonal a[{i}][{i}] = {v}"
                    )));
                }
            }
        }
    }
    let keep = |i: usize, j: usize| match symmetry {
        MmSymmetry::General => true,
        MmSymmetry::Symmetric => i >= j,
        MmSymmetry::SkewSymmetric => i > j,
    };
    let mut stored = 0usize;
    for i in 0..a.nrows {
        let (cols, _) = a.row(i);
        stored += cols.iter().filter(|&&c| keep(i, c as usize)).count();
    }
    writeln!(w, "%%MatrixMarket matrix coordinate real {}", symmetry.header_name())?;
    writeln!(w, "% written by graphene-sparse")?;
    writeln!(w, "{} {} {}", a.nrows, a.ncols, stored)?;
    for i in 0..a.nrows {
        let (cols, vals) = a.row(i);
        for (c, v) in cols.iter().zip(vals) {
            if keep(i, *c as usize) {
                writeln!(w, "{} {} {:.17e}", i + 1, *c as usize + 1, v)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_general() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 2.5);
        coo.push(1, 2, -1.25);
        coo.push(2, 1, 7.0);
        let a = coo.to_csr();
        let mut buf = Vec::new();
        write_matrix_market(&mut buf, &a).unwrap();
        let b = read_matrix_market(&buf[..]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn symmetric_mirrors_lower_triangle() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
                    % comment\n\
                    2 2 3\n\
                    1 1 4.0\n\
                    2 1 -1.0\n\
                    2 2 4.0\n";
        let a = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(a.nnz(), 4);
        assert_eq!(a.get(0, 1), -1.0);
        assert_eq!(a.get(1, 0), -1.0);
        assert!(a.is_symmetric(1e-15));
    }

    #[test]
    fn symmetric_rejects_upper_triangle_entry() {
        // Regression: an upper-triangle entry in a symmetric file used to
        // be accepted and mirrored into a duplicate that to_csr summed,
        // corrupting the matrix (here the off-diagonal band would become
        // -2 instead of -1). It must be a parse error.
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
                    2 2 3\n\
                    1 1 4.0\n\
                    1 2 -1.0\n\
                    2 2 4.0\n";
        match read_matrix_market(text.as_bytes()) {
            Err(MmError::Parse(m)) => assert!(m.contains("upper-triangle"), "{m}"),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn skew_symmetric_mirrors_with_negation() {
        let text = "%%MatrixMarket matrix coordinate real skew-symmetric\n\
                    3 3 2\n\
                    2 1 5.0\n\
                    3 2 -2.5\n";
        let a = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(a.nnz(), 4);
        assert_eq!(a.get(1, 0), 5.0);
        assert_eq!(a.get(0, 1), -5.0);
        assert_eq!(a.get(2, 1), -2.5);
        assert_eq!(a.get(1, 2), 2.5);
        assert_eq!(a.get(0, 0), 0.0);
    }

    #[test]
    fn skew_symmetric_rejects_diagonal_and_upper() {
        let diag = "%%MatrixMarket matrix coordinate real skew-symmetric\n\
                    2 2 1\n\
                    1 1 1.0\n";
        assert!(read_matrix_market(diag.as_bytes()).is_err());
        let upper = "%%MatrixMarket matrix coordinate real skew-symmetric\n\
                     2 2 1\n\
                     1 2 1.0\n";
        assert!(read_matrix_market(upper.as_bytes()).is_err());
        // And a pattern cannot be skew-symmetric.
        let pat = "%%MatrixMarket matrix coordinate pattern skew-symmetric\n\
                   2 2 1\n\
                   2 1\n";
        assert!(read_matrix_market(pat.as_bytes()).is_err());
    }

    #[test]
    fn symmetric_roundtrip_via_writer() {
        let a = crate::gen::poisson_2d_5pt(5, 4, 1.0);
        assert!(a.is_symmetric(0.0));
        let mut buf = Vec::new();
        write_matrix_market_with(&mut buf, &a, MmSymmetry::Symmetric).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with("%%MatrixMarket matrix coordinate real symmetric"));
        let b = read_matrix_market(&buf[..]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn skew_symmetric_roundtrip_via_writer() {
        let mut coo = CooMatrix::new(4, 4);
        for (i, j, v) in [(1usize, 0usize, 3.0), (2, 0, -1.5), (3, 2, 0.25)] {
            coo.push(i, j, v);
            coo.push(j, i, -v);
        }
        let a = coo.to_csr();
        let mut buf = Vec::new();
        write_matrix_market_with(&mut buf, &a, MmSymmetry::SkewSymmetric).unwrap();
        let b = read_matrix_market(&buf[..]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn writer_validates_symmetry() {
        // Not symmetric: writing as symmetric must fail, not drop data.
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 1, 1.0);
        let a = coo.to_csr();
        assert!(write_matrix_market_with(&mut Vec::new(), &a, MmSymmetry::Symmetric).is_err());
        assert!(write_matrix_market_with(&mut Vec::new(), &a, MmSymmetry::SkewSymmetric).is_err());
        // Symmetric but with a nonzero diagonal: fine as symmetric,
        // invalid as skew-symmetric.
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 2.0);
        let d = coo.to_csr();
        assert!(write_matrix_market_with(&mut Vec::new(), &d, MmSymmetry::Symmetric).is_ok());
        assert!(write_matrix_market_with(&mut Vec::new(), &d, MmSymmetry::SkewSymmetric).is_err());
    }

    #[test]
    fn pattern_entries_are_one() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n\
                    2 2 2\n\
                    1 2\n\
                    2 1\n";
        let a = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(a.get(0, 1), 1.0);
        assert_eq!(a.get(1, 0), 1.0);
    }

    #[test]
    fn file_roundtrip() {
        let a = crate::gen::poisson_2d_5pt(6, 5, 1.0);
        let path = std::env::temp_dir().join("graphene_sparse_io_test.mtx");
        {
            let mut f = std::fs::File::create(&path).unwrap();
            write_matrix_market(&mut f, &a).unwrap();
        }
        let b = read_matrix_market_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(a, b);
    }

    #[test]
    fn missing_file_is_io_error() {
        match read_matrix_market_file("/nonexistent/graphene.mtx") {
            Err(MmError::Io(_)) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejects_bad_headers() {
        assert!(read_matrix_market("garbage\n1 1 0\n".as_bytes()).is_err());
        assert!(read_matrix_market("%%MatrixMarket matrix array real general\n1 1 0\n".as_bytes())
            .is_err());
        assert!(read_matrix_market(
            "%%MatrixMarket matrix coordinate complex general\n1 1 0\n".as_bytes()
        )
        .is_err());
    }

    #[test]
    fn rejects_out_of_bounds_and_count_mismatch() {
        let oob = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        assert!(read_matrix_market(oob.as_bytes()).is_err());
        let short = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n";
        assert!(read_matrix_market(short.as_bytes()).is_err());
    }
}
