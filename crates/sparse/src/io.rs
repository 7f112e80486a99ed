//! Matrix Market (`.mtx`) I/O.
//!
//! The evaluation matrices of the paper (Table 4) come from the SuiteSparse
//! collection and SNAP, both distributed in Matrix Market coordinate format.
//! This module reads the common variants (real / integer / pattern ×
//! general / symmetric) and writes `coordinate real general` files, so users
//! with local copies of the collections can run the harness on the genuine
//! matrices instead of the synthetic stand-ins.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

use crate::{Coo, Csr, Index, SparseError, Value};

/// Symmetry declared in a Matrix Market header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Symmetry {
    General,
    Symmetric,
    SkewSymmetric,
}

/// Reads a Matrix Market *coordinate* stream into a [`Coo`] matrix.
///
/// Supported qualifiers: field ∈ {`real`, `double`, `integer`, `pattern`}
/// (pattern entries get value 1.0) and symmetry ∈ {`general`, `symmetric`,
/// `skew-symmetric`} (the mirrored triangle is materialized). `complex` and
/// `hermitian` files are rejected.
///
/// A mutable reference works as the reader: `read_coo(&mut file)`.
///
/// # Errors
///
/// [`SparseError::Parse`] on malformed content, [`SparseError::Io`] on read
/// failures.
pub fn read_coo<R: Read>(reader: R) -> Result<Coo, SparseError> {
    let mut lines = BufReader::new(reader).lines().enumerate();

    // --- Header line ---
    let (line_no, header) = loop {
        match lines.next() {
            Some((i, line)) => {
                let line = line?;
                if !line.trim().is_empty() {
                    break (i + 1, line);
                }
            }
            None => {
                return Err(SparseError::Parse { line: 1, message: "empty input".into() })
            }
        }
    };
    let header_lc = header.to_ascii_lowercase();
    let tokens: Vec<&str> = header_lc.split_whitespace().collect();
    if tokens.len() < 5 || tokens[0] != "%%matrixmarket" || tokens[1] != "matrix" {
        return Err(SparseError::Parse {
            line: line_no,
            message: format!("expected '%%MatrixMarket matrix ...' header, got: {header}"),
        });
    }
    if tokens[2] != "coordinate" {
        return Err(SparseError::Parse {
            line: line_no,
            message: format!("only 'coordinate' format is supported, got '{}'", tokens[2]),
        });
    }
    let pattern = match tokens[3] {
        "real" | "double" | "integer" => false,
        "pattern" => true,
        other => {
            return Err(SparseError::Parse {
                line: line_no,
                message: format!("unsupported field type '{other}'"),
            })
        }
    };
    let symmetry = match tokens[4] {
        "general" => Symmetry::General,
        "symmetric" => Symmetry::Symmetric,
        "skew-symmetric" => Symmetry::SkewSymmetric,
        other => {
            return Err(SparseError::Parse {
                line: line_no,
                message: format!("unsupported symmetry '{other}'"),
            })
        }
    };

    // --- Size line (first non-comment, non-blank line) ---
    let (size_line_no, size_line) = loop {
        match lines.next() {
            Some((i, line)) => {
                let line = line?;
                let t = line.trim();
                if !t.is_empty() && !t.starts_with('%') {
                    break (i + 1, line);
                }
            }
            None => {
                return Err(SparseError::Parse {
                    line: line_no,
                    message: "missing size line".into(),
                })
            }
        }
    };
    let dims: Vec<&str> = size_line.split_whitespace().collect();
    if dims.len() != 3 {
        return Err(SparseError::Parse {
            line: size_line_no,
            message: format!("size line must have 3 fields, got {}", dims.len()),
        });
    }
    let parse_dim = |s: &str, what: &str| -> Result<u64, SparseError> {
        s.parse::<u64>().map_err(|_| SparseError::Parse {
            line: size_line_no,
            message: format!("invalid {what}: '{s}'"),
        })
    };
    let nrows = parse_dim(dims[0], "row count")?;
    let ncols = parse_dim(dims[1], "column count")?;
    let nnz = usize::try_from(parse_dim(dims[2], "entry count")?).map_err(|_| {
        SparseError::Parse {
            line: size_line_no,
            message: "entry count exceeds addressable memory".into(),
        }
    })?;
    let (Ok(nrows), Ok(ncols)) = (Index::try_from(nrows), Index::try_from(ncols)) else {
        return Err(SparseError::Parse {
            line: size_line_no,
            message: "matrix dimensions exceed 32-bit index range".into(),
        });
    };

    let cap = match symmetry {
        Symmetry::General => nnz,
        _ => nnz.checked_mul(2).ok_or_else(|| SparseError::Parse {
            line: size_line_no,
            message: format!("entry count {nnz} overflows mirrored capacity"),
        })?,
    };
    // The header is untrusted input: a file declaring the whole address
    // space as its entry count must not abort the process in the allocator.
    // Pre-allocate a bounded amount and let `Vec` growth absorb honest
    // large files.
    const MAX_PREALLOC_ENTRIES: usize = 1 << 24;
    let mut coo = Coo::with_capacity(nrows, ncols, cap.min(MAX_PREALLOC_ENTRIES));
    let mut seen = 0usize;
    for (i, line) in lines {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut fields = t.split_whitespace();
        let (r, c) = match (fields.next(), fields.next()) {
            (Some(r), Some(c)) => (r, c),
            _ => {
                return Err(SparseError::Parse {
                    line: i + 1,
                    message: "entry line needs at least 'row col'".into(),
                })
            }
        };
        let r: u64 = r.parse().map_err(|_| SparseError::Parse {
            line: i + 1,
            message: format!("invalid row index '{r}'"),
        })?;
        let c: u64 = c.parse().map_err(|_| SparseError::Parse {
            line: i + 1,
            message: format!("invalid column index '{c}'"),
        })?;
        if r == 0 || c == 0 || r > u64::from(nrows) || c > u64::from(ncols) {
            return Err(SparseError::Parse {
                line: i + 1,
                message: format!("entry ({r},{c}) outside 1..={nrows} x 1..={ncols}"),
            });
        }
        let v: Value = if pattern {
            1.0
        } else {
            let raw = fields.next().ok_or_else(|| SparseError::Parse {
                line: i + 1,
                message: "missing value field".into(),
            })?;
            raw.parse().map_err(|_| SparseError::Parse {
                line: i + 1,
                message: format!("invalid value '{raw}'"),
            })?
        };
        // 1 <= r <= nrows and 1 <= c <= ncols, so both fit an `Index`.
        let zero_based = |x: u64| Index::try_from(x - 1).expect("checked against the dimensions");
        let (r0, c0) = (zero_based(r), zero_based(c));
        coo.push(r0, c0, v);
        if r0 != c0 {
            match symmetry {
                Symmetry::General => {}
                Symmetry::Symmetric => coo.push(c0, r0, v),
                Symmetry::SkewSymmetric => coo.push(c0, r0, -v),
            }
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(SparseError::Parse {
            line: size_line_no,
            message: format!("size line declared {nnz} entries but file contains {seen}"),
        });
    }
    Ok(coo)
}

/// Reads a Matrix Market file from `path` into CSR.
///
/// # Errors
///
/// Propagates [`read_coo`] errors and I/O failures.
pub fn read_csr<P: AsRef<Path>>(path: P) -> Result<Csr, SparseError> {
    let file = std::fs::File::open(path)?;
    Ok(read_coo(file)?.to_csr())
}

/// Writes `m` as `matrix coordinate real general` to `writer`.
///
/// A mutable reference works as the writer: `write_csr(&mut buf, &m)`.
///
/// # Errors
///
/// [`SparseError::Io`] on write failures.
pub fn write_csr<W: Write>(mut writer: W, m: &Csr) -> Result<(), SparseError> {
    writeln!(writer, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(writer, "% generated by outerspace-sparse")?;
    writeln!(writer, "{} {} {}", m.nrows(), m.ncols(), m.nnz())?;
    for (r, c, v) in m.iter() {
        writeln!(writer, "{} {} {v:e}", r + 1, c + 1)?;
    }
    Ok(())
}

/// Reads a SNAP-style edge list: one `src dst` pair per line (whitespace
/// separated), `#`-prefixed comment lines ignored, node ids 0-based. This is
/// the distribution format of the Stanford Network Analysis Project graphs
/// the paper evaluates (Table 4's SNAP entries).
///
/// The matrix dimension is `max node id + 1`; every edge gets value 1.0;
/// `symmetric` mirrors each edge (for undirected graphs stored one-way).
///
/// # Errors
///
/// [`SparseError::Parse`] on malformed lines, [`SparseError::Io`] on read
/// failures.
pub fn read_edge_list<R: Read>(reader: R, symmetric: bool) -> Result<Coo, SparseError> {
    // An id must leave room for the dimension `max id + 1` in an `Index`.
    let node_id = |raw: &str, role: &str, line: usize| -> Result<Index, SparseError> {
        let id: u64 = raw.parse().map_err(|_| SparseError::Parse {
            line,
            message: format!("invalid {role} id '{raw}'"),
        })?;
        Index::try_from(id).ok().filter(|&id| id < Index::MAX).ok_or_else(|| SparseError::Parse {
            line,
            message: format!("node id {id} exceeds 32-bit index range"),
        })
    };
    let mut edges: Vec<(Index, Index)> = Vec::new();
    let mut max_id = 0;
    for (i, line) in BufReader::new(reader).lines().enumerate() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
            continue;
        }
        let mut fields = t.split_whitespace();
        let (u, v) = match (fields.next(), fields.next()) {
            (Some(u), Some(v)) => (u, v),
            _ => {
                return Err(SparseError::Parse {
                    line: i + 1,
                    message: "edge line needs 'src dst'".into(),
                })
            }
        };
        let (u, v) = (node_id(u, "source", i + 1)?, node_id(v, "target", i + 1)?);
        max_id = max_id.max(u).max(v);
        edges.push((u, v));
    }
    let n = if edges.is_empty() { 0 } else { max_id + 1 };
    let cap = if symmetric { edges.len().saturating_mul(2) } else { edges.len() };
    let mut coo = Coo::with_capacity(n, n, cap);
    for (u, v) in edges {
        coo.push(u, v, 1.0);
        if symmetric && u != v {
            coo.push(v, u, 1.0);
        }
    }
    Ok(coo)
}

#[cfg(test)]
mod tests {
    use super::*;

    const GENERAL: &str = "%%MatrixMarket matrix coordinate real general\n\
        % a comment\n\
        3 3 3\n\
        1 1 2.0\n\
        2 3 -1.5\n\
        3 1 4\n";

    #[test]
    fn reads_general_real() {
        let m = read_coo(GENERAL.as_bytes()).unwrap().to_csr();
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.get(0, 0), 2.0);
        assert_eq!(m.get(1, 2), -1.5);
        assert_eq!(m.get(2, 0), 4.0);
    }

    #[test]
    fn reads_symmetric_and_mirrors() {
        let src = "%%MatrixMarket matrix coordinate real symmetric\n\
            2 2 2\n\
            1 1 1.0\n\
            2 1 5.0\n";
        let m = read_coo(src.as_bytes()).unwrap().to_csr();
        assert_eq!(m.nnz(), 3); // diagonal not duplicated
        assert_eq!(m.get(0, 1), 5.0);
        assert_eq!(m.get(1, 0), 5.0);
    }

    #[test]
    fn reads_skew_symmetric() {
        let src = "%%MatrixMarket matrix coordinate real skew-symmetric\n\
            2 2 1\n\
            2 1 3.0\n";
        let m = read_coo(src.as_bytes()).unwrap().to_csr();
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.get(0, 1), -3.0);
    }

    #[test]
    fn reads_pattern_as_ones() {
        let src = "%%MatrixMarket matrix coordinate pattern general\n\
            2 2 2\n\
            1 2\n\
            2 1\n";
        let m = read_coo(src.as_bytes()).unwrap().to_csr();
        assert_eq!(m.get(0, 1), 1.0);
        assert_eq!(m.get(1, 0), 1.0);
    }

    #[test]
    fn rejects_bad_header() {
        let err = read_coo("%%NotMM\n1 1 0\n".as_bytes()).unwrap_err();
        assert!(matches!(err, SparseError::Parse { line: 1, .. }));
    }

    #[test]
    fn rejects_array_format() {
        let err =
            read_coo("%%MatrixMarket matrix array real general\n1 1\n1.0\n".as_bytes())
                .unwrap_err();
        assert!(err.to_string().contains("coordinate"));
    }

    #[test]
    fn rejects_out_of_range_entry() {
        let src = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        assert!(read_coo(src.as_bytes()).is_err());
    }

    #[test]
    fn rejects_wrong_entry_count() {
        let src = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n";
        let err = read_coo(src.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("declared 2"));
    }

    #[test]
    fn one_based_indices_rejected_at_zero() {
        let src = "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n";
        assert!(read_coo(src.as_bytes()).is_err());
    }

    #[test]
    fn write_read_round_trip() {
        let m = read_coo(GENERAL.as_bytes()).unwrap().to_csr();
        let mut buf = Vec::new();
        write_csr(&mut buf, &m).unwrap();
        let back = read_coo(buf.as_slice()).unwrap().to_csr();
        assert!(m.approx_eq(&back, 1e-12));
    }

    #[test]
    fn edge_list_reads_snap_format() {
        let src = "# Directed graph\n# Nodes: 4 Edges: 3\n0\t1\n2 3\n3\t0\n";
        let m = read_edge_list(src.as_bytes(), false).unwrap().to_csr();
        assert_eq!(m.nrows(), 4);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.get(0, 1), 1.0);
        assert_eq!(m.get(3, 0), 1.0);
    }

    #[test]
    fn edge_list_symmetric_mirrors() {
        let m = read_edge_list("0 1\n1 2\n".as_bytes(), true).unwrap().to_csr();
        assert_eq!(m.nnz(), 4);
        assert_eq!(m, m.transpose());
    }

    #[test]
    fn edge_list_duplicate_edges_merge() {
        let m = read_edge_list("0 1\n0 1\n".as_bytes(), false).unwrap().to_csr();
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.get(0, 1), 2.0);
    }

    #[test]
    fn edge_list_rejects_garbage() {
        assert!(read_edge_list("0 x\n".as_bytes(), false).is_err());
        assert!(read_edge_list("lonely\n".as_bytes(), false).is_err());
    }

    fn out_of_index_range_at(err: &SparseError, at: usize) -> bool {
        matches!(err, SparseError::Parse { line, message }
            if *line == at && message.contains("32-bit index range"))
    }

    #[test]
    fn edge_list_ids_must_leave_room_for_the_dimension() {
        let top = u64::from(Index::MAX);
        let m = read_edge_list(format!("0 {}\n", top - 1).as_bytes(), false).unwrap();
        assert_eq!((m.nrows(), m.ncols()), (Index::MAX, Index::MAX));
        for id in [top, top + 1, 1 << 40] {
            let err = read_edge_list(format!("0 1\n{id} 0\n").as_bytes(), false).unwrap_err();
            assert!(out_of_index_range_at(&err, 2), "{id}: {err:?}");
        }
    }

    #[test]
    fn matrix_market_dimensions_must_fit_an_index() {
        let top = u64::from(Index::MAX);
        let header = "%%MatrixMarket matrix coordinate real general";
        let src = format!("{header}\n{top} 1 1\n{top} 1 2.0\n");
        let m = read_coo(src.as_bytes()).unwrap();
        assert_eq!(m.nrows(), Index::MAX);
        assert_eq!(m.iter().next(), Some((Index::MAX - 1, 0, 2.0)));
        for (r, c) in [(top + 1, 1), (1, top + 1), (1 << 40, 1)] {
            let err = read_coo(format!("{header}\n{r} {c} 0\n").as_bytes()).unwrap_err();
            assert!(out_of_index_range_at(&err, 2), "{r}x{c}: {err:?}");
        }
    }

    #[test]
    fn empty_edge_list_is_empty_matrix() {
        let m = read_edge_list("# nothing\n".as_bytes(), false).unwrap();
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.nrows(), 0);
    }

    #[test]
    fn adversarial_entry_count_does_not_abort_allocation() {
        // A header may declare the entire 64-bit space as its entry count;
        // the reader must fail with a parse error, not abort inside the
        // allocator trying to pre-reserve it.
        let src = format!(
            "%%MatrixMarket matrix coordinate real general\n2 2 {}\n1 1 1.0\n",
            u64::MAX
        );
        let err = read_coo(src.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("declared"), "got: {err}");
    }

    #[test]
    fn symmetric_mirror_capacity_overflow_is_rejected() {
        // Mirroring doubles the capacity; nnz values near usize::MAX must be
        // rejected by the checked multiply instead of wrapping.
        let src = format!(
            "%%MatrixMarket matrix coordinate real symmetric\n2 2 {}\n1 1 1.0\n",
            u64::MAX
        );
        let err = read_coo(src.as_bytes()).unwrap_err();
        assert!(
            err.to_string().contains("overflow") || err.to_string().contains("addressable"),
            "got: {err}"
        );
    }

    #[test]
    fn scientific_notation_values_parse() {
        let src = "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 6.02e23\n";
        let m = read_coo(src.as_bytes()).unwrap().to_csr();
        assert_eq!(m.get(0, 0), 6.02e23);
    }
}
