//! Binary persistence for the offline index.
//!
//! Indexing a lake is the expensive offline step (the paper reports 2–80
//! hours on its corpora); a deployment builds `AllTables` once and reloads
//! it at startup. The format is a versioned little-endian frame stream:
//!
//! ```text
//! magic "BLND" | u32 version | u64 row count | rows...
//! row: u32 value_len | value bytes | u32 table | u32 column | u32 row
//!      | u128 superkey | u8 quadrant code
//! ```

use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use blend_common::{BlendError, Result};
use blend_storage::{
    decode_quadrant, encode_quadrant, FactRow, QUADRANT_NULL, QUADRANT_ONE, QUADRANT_ZERO,
};

const MAGIC: &[u8; 4] = b"BLND";
const VERSION: u32 = 1;

/// Bytes of an encoded row besides its value: length prefix, three ids,
/// super key, quadrant code — also the smallest a row can encode to.
const MIN_ROW_BYTES: usize = 4 + 4 * 3 + 16 + 1;

/// Serialize fact rows into a byte buffer.
pub fn encode_rows(rows: &[FactRow]) -> Bytes {
    let mut buf = BytesMut::with_capacity(32 + rows.len() * 48);
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u64_le(rows.len() as u64);
    for r in rows {
        buf.put_u32_le(r.value.len() as u32);
        buf.put_slice(r.value.as_bytes());
        buf.put_u32_le(r.table);
        buf.put_u32_le(r.column);
        buf.put_u32_le(r.row);
        buf.put_u128_le(r.superkey);
        buf.put_u8(encode_quadrant(r.quadrant));
    }
    buf.freeze()
}

/// Deserialize fact rows from a byte buffer. Corrupt input of any shape —
/// truncated, oversized counts or lengths, bad UTF-8, unknown quadrant
/// codes, two super keys for one (`TableId`, `RowId`), trailing bytes — is
/// a typed [`BlendError::Index`], never a panic; whatever decodes
/// re-encodes to exactly the input bytes.
pub fn decode_rows(mut buf: &[u8]) -> Result<Vec<FactRow>> {
    let err = |m: &str| BlendError::Index(format!("index file corrupt: {m}"));
    if buf.remaining() < 16 {
        return Err(err("truncated header"));
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(err("bad magic"));
    }
    let version = buf.get_u32_le();
    if version != VERSION {
        return Err(BlendError::Index(format!(
            "unsupported index version {version} (expected {VERSION})"
        )));
    }
    let n = buf.get_u64_le();
    // The count is untrusted: reserve no more rows than the bytes left can
    // hold, so a header claiming 2^40 rows reserves nothing.
    let mut rows = Vec::with_capacity((buf.remaining() / MIN_ROW_BYTES).min(n as usize));
    for _ in 0..n {
        if buf.remaining() < 4 {
            return Err(err("truncated value length"));
        }
        let len = buf.get_u32_le() as usize;
        let Some((value, fields, rest)) = buf.split_at_checked(len).and_then(|(value, rest)| {
            let (fields, rest) = rest.split_first_chunk::<{ MIN_ROW_BYTES - 4 }>()?;
            Some((value, fields, rest))
        }) else {
            return Err(err("truncated row"));
        };
        buf = rest;
        // One copy per value: boxed straight from the validated slice.
        let value: Box<str> = (std::str::from_utf8(value))
            .map_err(|_| err("non-UTF8 value"))?
            .into();
        // The row's fixed fields, read off one array.
        let [t0, t1, t2, t3, c0, c1, c2, c3, r0, r1, r2, r3, superkey @ .., quadrant] = *fields;
        let (table, column, row) = (
            u32::from_le_bytes([t0, t1, t2, t3]),
            u32::from_le_bytes([c0, c1, c2, c3]),
            u32::from_le_bytes([r0, r1, r2, r3]),
        );
        let superkey = u128::from_le_bytes(superkey);
        let quadrant = match quadrant {
            code @ (QUADRANT_NULL | QUADRANT_ZERO | QUADRANT_ONE) => decode_quadrant(code),
            code => return Err(err(&format!("invalid quadrant code {code}"))),
        };
        rows.push(FactRow {
            value,
            table,
            column,
            row,
            superkey,
            quadrant,
        });
    }
    if buf.has_remaining() {
        return Err(err("trailing bytes"));
    }
    // A super key belongs to its row (the column store keeps one per row).
    match two_super_keys(&rows) {
        Some((table, row)) => Err(err(&format!("two super keys for table {table} row {row}"))),
        None => Ok(rows),
    }
}

/// The first (`TableId`, `RowId`) whose cells carry two super keys. Where
/// each table's cells are one block and the blocks ascend by `TableId` (as
/// `IndexBuilder` writes them), each block is checked alone: by `RowId`
/// where its ids lie below its cell count, by sorting its cells otherwise.
/// Other input is sorted whole.
fn two_super_keys(rows: &[FactRow]) -> Option<(u32, u32)> {
    let blocks: Vec<&[FactRow]> = rows.chunk_by(|a, b| a.table == b.table).collect();
    if !blocks.windows(2).all(|w| w[0][0].table < w[1][0].table) {
        return sorted_conflict(rows);
    }
    let mut marks = Vec::new();
    blocks.into_iter().find_map(|cells| {
        if cells.iter().any(|c| c.row as usize >= cells.len()) {
            return sorted_conflict(cells);
        }
        marks.clear();
        marks.resize(cells.len(), None);
        let mut clash = cells
            .iter()
            .filter(|c| *marks[c.row as usize].get_or_insert(c.superkey) != c.superkey);
        clash.next().map(|c| (c.table, c.row))
    })
}

/// The first (`TableId`, `RowId`) of `cells` that carries two super keys,
/// by sorting them.
fn sorted_conflict(cells: &[FactRow]) -> Option<(u32, u32)> {
    let mut keys: Vec<_> = cells
        .iter()
        .map(|c| ((c.table, c.row), c.superkey))
        .collect();
    keys.sort_unstable_by_key(|k| k.0);
    let mut clash = keys
        .windows(2)
        .filter(|w| w[0].0 == w[1].0 && w[0].1 != w[1].1);
    clash.next().map(|w| w[0].0)
}

/// Write fact rows to a file.
pub fn save_rows(path: &Path, rows: &[FactRow]) -> Result<()> {
    let file = std::fs::File::create(path)?;
    let mut w = BufWriter::new(file);
    w.write_all(&encode_rows(rows))?;
    w.flush()?;
    Ok(())
}

/// Read fact rows from a file.
pub fn load_rows(path: &Path) -> Result<Vec<FactRow>> {
    let file = std::fs::File::open(path)?;
    let mut r = BufReader::new(file);
    let mut buf = Vec::new();
    r.read_to_end(&mut buf)?;
    decode_rows(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<FactRow> {
        vec![
            FactRow::new("alpha", 0, 0, 0, 0xDEAD_BEEF, None),
            FactRow::new("universität 42", 1, 2, 3, u128::MAX, Some(true)),
            FactRow::new("", 2, 0, 0, 0, Some(false)),
        ]
    }

    #[test]
    fn roundtrip_in_memory() {
        let rows = sample();
        let encoded = encode_rows(&rows);
        let decoded = decode_rows(&encoded).unwrap();
        assert_eq!(rows, decoded);
    }

    #[test]
    fn roundtrip_through_file() {
        let rows = sample();
        let dir = std::env::temp_dir().join("blend-persist-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("index.blnd");
        save_rows(&path, &rows).unwrap();
        let decoded = load_rows(&path).unwrap();
        assert_eq!(rows, decoded);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_index_roundtrips() {
        let encoded = encode_rows(&[]);
        assert_eq!(decode_rows(&encoded).unwrap(), Vec::<FactRow>::new());
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let mut encoded = encode_rows(&sample()).to_vec();
        encoded[0] = b'X';
        assert!(decode_rows(&encoded).is_err());

        let mut encoded = encode_rows(&sample()).to_vec();
        encoded[4] = 99; // version
        let err = decode_rows(&encoded).unwrap_err().to_string();
        assert!(err.contains("version"), "{err}");
    }

    #[test]
    fn rejects_truncation_anywhere() {
        let encoded = encode_rows(&sample());
        for cut in [1, 8, 17, encoded.len() - 1] {
            assert!(
                decode_rows(&encoded[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut encoded = encode_rows(&sample()).to_vec();
        encoded.push(0);
        assert!(decode_rows(&encoded).is_err());
    }

    #[test]
    fn rejects_non_utf8_values_and_names_truncations() {
        // Header (16 bytes), then the first row's value length (4 bytes)
        // and its value.
        let mut encoded = encode_rows(&sample()).to_vec();
        encoded[20] = 0xFF;
        let err = decode_rows(&encoded).unwrap_err();
        assert!(
            matches!(&err, BlendError::Index(m) if m.contains("non-UTF8 value")),
            "{err}"
        );
        let encoded = encode_rows(&sample());
        for (cut, what) in [(8, "truncated header"), (18, "truncated value length")] {
            let err = decode_rows(&encoded[..cut]).unwrap_err();
            assert!(
                matches!(&err, BlendError::Index(m) if m.contains(what)),
                "{err}"
            );
        }
        let err = decode_rows(&encoded[..encoded.len() - 1]).unwrap_err();
        assert!(
            matches!(&err, BlendError::Index(m) if m.contains("truncated row")),
            "{err}"
        );
    }

    #[test]
    fn rejects_unknown_quadrant_codes() {
        let rows = vec![FactRow::new("alpha", 0, 0, 0, 7, Some(true))];
        let mut encoded = encode_rows(&rows).to_vec();
        let last = encoded.len() - 1;
        for code in [3u8, 0x80, 0xFF] {
            encoded[last] = code;
            let err = decode_rows(&encoded).unwrap_err();
            assert!(
                matches!(&err, BlendError::Index(m) if m.contains("quadrant")),
                "{err}"
            );
        }
    }

    #[test]
    fn rejects_two_super_keys_for_one_row() {
        // Cells of one (table, row) apart and adjacent; the same row id in
        // another table may differ.
        let mut rows = sample();
        rows.push(FactRow::new("gamma", 2, 1, 0, 0, None));
        rows.push(FactRow::new("beta", 0, 3, 0, 0xDEAD_BEEF, None));
        rows.push(FactRow::new("delta", 1, 0, 0, 5, None));
        assert_eq!(decode_rows(&encode_rows(&rows)).unwrap(), rows);
        for (i, sk) in [(3, 1), (2, 1), (4, 0xDEAD_BEEE)] {
            let mut bad = rows.clone();
            bad[i].superkey = sk;
            let err = decode_rows(&encode_rows(&bad)).unwrap_err();
            assert!(
                matches!(&err, BlendError::Index(m) if m.contains("super keys")),
                "{err}"
            );
        }
    }

    /// Canonical order — each table's cells column by column — with a
    /// row's super key wrong only in its table's last column: as the builder
    /// writes it (ids below the cell count) and with far `RowId`s, and
    /// across tables that are not contiguous.
    #[test]
    fn rejects_two_super_keys_in_canonical_order() {
        let canonical = |rows: &[u32]| -> Vec<FactRow> {
            (0..2u32)
                .flat_map(|t| (0..6).flat_map(move |c| rows.iter().map(move |&r| (t, c, r))))
                .map(|(t, c, r)| FactRow::new("v", t, c, r, (t * 100 + r) as u128, None))
                .collect()
        };
        for rows in [vec![0, 1, 2, 3], vec![4, 90, 1_000_000]] {
            let good = canonical(&rows);
            assert_eq!(decode_rows(&encode_rows(&good)).unwrap(), good);
            let mut swapped = good.clone();
            swapped.swap(0, good.len() - 1);
            assert_eq!(decode_rows(&encode_rows(&swapped)).unwrap(), swapped);
            // Table 0's last column, its second row; then the same cell
            // with the tables out of order.
            let mut bad = good.clone();
            bad[5 * rows.len() + 1].superkey ^= 1;
            let want = format!("two super keys for table 0 row {}", rows[1]);
            for input in [bad.clone(), {
                bad.swap(0, good.len() - 1);
                bad
            }] {
                let err = decode_rows(&encode_rows(&input)).unwrap_err();
                assert!(
                    matches!(&err, BlendError::Index(m) if m.contains(&want)),
                    "{err}"
                );
            }
        }
    }

    #[test]
    fn oversized_row_count_reserves_nothing_and_fails_typed() {
        // A bare header claiming 2^40 rows: no row fits in zero bytes.
        let mut header = encode_rows(&[]).to_vec();
        header[8..16].copy_from_slice(&(1u64 << 40).to_le_bytes());
        assert!(matches!(decode_rows(&header), Err(BlendError::Index(_))));
    }

    /// Rows with ASCII, multi-byte and empty values and every quadrant.
    fn generated(n: usize, seed: u64) -> Vec<FactRow> {
        const VALUES: [&str; 4] = ["alpha", "universität", "", "42"];
        let quadrants = [None, Some(false), Some(true)];
        (0..n)
            .map(|i| {
                let s = seed.wrapping_add(i as u64);
                FactRow::new(
                    VALUES[(s % 4) as usize],
                    (s >> 8) as u32,
                    (s >> 16) as u32 % 9,
                    i as u32,
                    (s as u128) << 64 | i as u128,
                    quadrants[(s >> 4) as usize % 3],
                )
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Byte-level corruption never panics: truncation and oversized
        /// counts or value lengths fail typed, and a flipped byte either
        /// fails typed or decodes to rows that re-encode to exactly the
        /// flipped bytes (so an unflipped file decodes to its rows).
        #[test]
        fn corrupt_bytes_fail_typed_or_decode_exactly(
            n in 0usize..6,
            seed in proptest::prelude::any::<u64>(),
            at in proptest::prelude::any::<u64>(),
            flip in 1u32..256,
            huge in proptest::prelude::any::<u64>(),
        ) {
            let rows = generated(n, seed);
            let encoded = encode_rows(&rows).to_vec();
            let typed = |r: Result<Vec<FactRow>>| matches!(r, Err(BlendError::Index(_)));
            proptest::prop_assert_eq!(decode_rows(&encoded).unwrap(), rows);

            let cut = (at % encoded.len() as u64) as usize;
            proptest::prop_assert!(typed(decode_rows(&encoded[..cut])), "cut at {}", cut);

            let mut flipped = encoded.clone();
            flipped[cut] ^= flip as u8;
            match decode_rows(&flipped) {
                Ok(back) => proptest::prop_assert_eq!(encode_rows(&back).to_vec(), flipped),
                Err(e) => proptest::prop_assert!(matches!(e, BlendError::Index(_)), "{}", e),
            }

            let mut counted = encoded.clone();
            let count = n as u64 + 1 + huge % (1 << 40);
            counted[8..16].copy_from_slice(&count.to_le_bytes());
            proptest::prop_assert!(typed(decode_rows(&counted)), "count {}", count);

            if n > 0 {
                let mut long = encoded;
                let len = u32::MAX - (huge % 64) as u32;
                long[16..20].copy_from_slice(&len.to_le_bytes());
                proptest::prop_assert!(typed(decode_rows(&long)), "value_len {}", len);
            }
        }
    }

    #[test]
    fn rebuilt_engine_matches_original() {
        // The property that matters: a reloaded index serves identical
        // postings.
        use blend_storage::{build_engine, EngineKind};
        let rows = sample();
        let reloaded = decode_rows(&encode_rows(&rows)).unwrap();
        let a = build_engine(EngineKind::Column, rows);
        let b = build_engine(EngineKind::Column, reloaded);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.postings("alpha"), b.postings("alpha"));
    }
}
