//! Minimal BMP codec for 8-bit grayscale (palettised) and 24-bit BGR
//! uncompressed bitmaps — the format the paper's test images use
//! ("Uncompressed bitmap images ... were used for all experiments").

use crate::image::Image;

/// Errors from BMP decoding.
#[derive(Debug, PartialEq, Eq)]
pub enum BmpError {
    /// Too few bytes for the declared structures.
    Truncated,
    /// Not a BMP file (bad magic).
    BadMagic,
    /// A feature this codec does not implement (compression, other depths).
    Unsupported(&'static str),
    /// Header fields are internally inconsistent.
    Malformed(&'static str),
}

impl std::fmt::Display for BmpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BmpError::Truncated => write!(f, "truncated BMP data"),
            BmpError::BadMagic => write!(f, "missing 'BM' magic"),
            BmpError::Unsupported(what) => write!(f, "unsupported BMP feature: {what}"),
            BmpError::Malformed(what) => write!(f, "malformed BMP: {what}"),
        }
    }
}

impl std::error::Error for BmpError {}

const FILE_HEADER_LEN: usize = 14;
const INFO_HEADER_LEN: usize = 40;

fn row_size_bytes(width: usize, bits: usize) -> usize {
    (width * bits).div_ceil(32) * 4
}

/// Starts a BMP buffer with its 14-byte file header and 40-byte
/// BITMAPINFOHEADER (bottom-up rows, no compression, 72 dpi).
fn headers(w: usize, h: usize, bpp: u16, palette_entries: u32) -> Vec<u8> {
    let row = row_size_bytes(w, bpp as usize);
    let data_offset = FILE_HEADER_LEN + INFO_HEADER_LEN + palette_entries as usize * 4;
    let file_len = data_offset + row * h;
    let mut out = Vec::with_capacity(file_len);
    // File header.
    out.extend_from_slice(b"BM");
    out.extend_from_slice(&(file_len as u32).to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    out.extend_from_slice(&(data_offset as u32).to_le_bytes());
    // Info header (BITMAPINFOHEADER).
    out.extend_from_slice(&(INFO_HEADER_LEN as u32).to_le_bytes());
    out.extend_from_slice(&(w as i32).to_le_bytes());
    out.extend_from_slice(&(h as i32).to_le_bytes()); // positive: bottom-up
    out.extend_from_slice(&1u16.to_le_bytes()); // planes
    out.extend_from_slice(&bpp.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes()); // BI_RGB
    out.extend_from_slice(&((row * h) as u32).to_le_bytes());
    out.extend_from_slice(&2835i32.to_le_bytes()); // 72 dpi
    out.extend_from_slice(&2835i32.to_le_bytes());
    out.extend_from_slice(&palette_entries.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    out
}

/// Encodes a grayscale image as an 8-bit palettised BMP.
pub fn encode_gray(img: &Image<u8>) -> Vec<u8> {
    let (w, h) = (img.width(), img.height());
    let mut out = headers(w, h, 8, 256);
    // Grayscale palette.
    for i in 0..=255u8 {
        out.extend_from_slice(&[i, i, i, 0]);
    }
    // Pixel rows, bottom-up, padded to 4 bytes.
    let pad = row_size_bytes(w, 8) - w;
    for y in (0..h).rev() {
        out.extend_from_slice(img.row(y));
        out.resize(out.len() + pad, 0);
    }
    out
}

/// Encodes three channel planes (B, G, R order per BMP convention) as a
/// 24-bit BMP. All planes must share dimensions.
pub fn encode_bgr(b: &Image<u8>, g: &Image<u8>, r: &Image<u8>) -> Vec<u8> {
    assert_eq!(b.width(), g.width());
    assert_eq!(b.width(), r.width());
    assert_eq!(b.height(), g.height());
    assert_eq!(b.height(), r.height());
    let (w, h) = (b.width(), b.height());
    let mut out = headers(w, h, 24, 0);
    let pad = row_size_bytes(w, 24) - 3 * w;
    for y in (0..h).rev() {
        let (rb, rg, rr) = (b.row(y), g.row(y), r.row(y));
        for x in 0..w {
            out.extend_from_slice(&[rb[x], rg[x], rr[x]]);
        }
        out.resize(out.len() + pad, 0);
    }
    out
}

/// Decoded BMP content.
#[derive(Debug)]
pub enum Decoded {
    /// 8-bit palettised image mapped through its palette to grayscale
    /// (luma of palette entries).
    Gray(Image<u8>),
    /// 24-bit image split into (b, g, r) planes.
    Bgr(Image<u8>, Image<u8>, Image<u8>),
}

/// The `N` bytes at `off`, or `Truncated` when `data` ends first.
fn field<const N: usize>(data: &[u8], off: usize) -> Result<[u8; N], BmpError> {
    data.get(off..off + N)
        .and_then(|bytes| bytes.try_into().ok())
        .ok_or(BmpError::Truncated)
}

/// Decodes an 8-bit palettised or 24-bit uncompressed BMP.
pub fn decode(data: &[u8]) -> Result<Decoded, BmpError> {
    if data.len() < FILE_HEADER_LEN + INFO_HEADER_LEN {
        return Err(BmpError::Truncated);
    }
    if &data[0..2] != b"BM" {
        return Err(BmpError::BadMagic);
    }
    let u32_at = |off| field(data, off).map(u32::from_le_bytes);
    let i32_at = |off| field(data, off).map(i32::from_le_bytes);
    let data_offset = u32_at(10)? as usize;
    let info_len = u32_at(14)? as usize;
    if info_len < INFO_HEADER_LEN {
        return Err(BmpError::Unsupported("pre-BITMAPINFOHEADER format"));
    }
    let width_raw = i32_at(18)?;
    let height_raw = i32_at(22)?;
    let bpp = u16::from_le_bytes(field(data, 28)?);
    let compression = u32_at(30)?;
    if compression != 0 {
        return Err(BmpError::Unsupported("compressed BMP"));
    }
    if width_raw <= 0 {
        return Err(BmpError::Malformed("non-positive width"));
    }
    let width = width_raw as usize;
    let (height, bottom_up) = (height_raw.unsigned_abs() as usize, height_raw >= 0);
    let palette_count = {
        let declared = u32_at(46)? as usize;
        if bpp == 8 && declared == 0 {
            256
        } else {
            declared
        }
    };
    // Whether `height` rows of `row` bytes fit in `data` (a size that
    // overflows cannot).
    let rows_fit = |row: usize| {
        row.checked_mul(height)
            .and_then(|len| len.checked_add(data_offset))
            .is_some_and(|end| end <= data.len())
    };

    match bpp {
        8 => {
            let palette_off = FILE_HEADER_LEN + info_len;
            let palette_end = palette_off + palette_count * 4;
            if data.len() < palette_end {
                return Err(BmpError::Truncated);
            }
            // Map palette entries to luma.
            let mut luma = [0u8; 256];
            for (i, l) in luma.iter_mut().enumerate().take(palette_count) {
                let e = &data[palette_off + 4 * i..palette_off + 4 * i + 4];
                let (b, g, r) = (e[0] as u32, e[1] as u32, e[2] as u32);
                *l = ((299 * r + 587 * g + 114 * b) / 1000) as u8;
            }
            let row = row_size_bytes(width, 8);
            if !rows_fit(row) {
                return Err(BmpError::Truncated);
            }
            let mut img = Image::new(width, height);
            for y in 0..height {
                let src_y = if bottom_up { height - 1 - y } else { y };
                let src = &data[data_offset + src_y * row..][..width];
                let dst = img.row_mut(y);
                for (d, &s) in dst.iter_mut().zip(src.iter()) {
                    *d = luma[s as usize];
                }
            }
            Ok(Decoded::Gray(img))
        }
        24 => {
            let row = row_size_bytes(width, 24);
            if !rows_fit(row) {
                return Err(BmpError::Truncated);
            }
            let mut b = Image::new(width, height);
            let mut g = Image::new(width, height);
            let mut r = Image::new(width, height);
            for y in 0..height {
                let src_y = if bottom_up { height - 1 - y } else { y };
                let src = &data[data_offset + src_y * row..][..3 * width];
                for x in 0..width {
                    b.row_mut(y)[x] = src[3 * x];
                    g.row_mut(y)[x] = src[3 * x + 1];
                    r.row_mut(y)[x] = src[3 * x + 2];
                }
            }
            Ok(Decoded::Bgr(b, g, r))
        }
        other => {
            let _ = other;
            Err(BmpError::Unsupported("bit depth (only 8 and 24 supported)"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gray_roundtrip() {
        let img = Image::from_fn(13, 7, |x, y| (x * 17 + y * 31) as u8);
        let bytes = encode_gray(&img);
        match decode(&bytes).unwrap() {
            Decoded::Gray(out) => assert!(out.pixels_eq(&img)),
            _ => panic!("expected gray"),
        }
    }

    #[test]
    fn gray_roundtrip_width_multiple_of_4() {
        let img = Image::from_fn(16, 3, |x, _| x as u8);
        let bytes = encode_gray(&img);
        match decode(&bytes).unwrap() {
            Decoded::Gray(out) => assert!(out.pixels_eq(&img)),
            _ => panic!("expected gray"),
        }
    }

    #[test]
    fn bgr_roundtrip() {
        let b = Image::from_fn(5, 4, |x, _| x as u8);
        let g = Image::from_fn(5, 4, |_, y| y as u8);
        let r = Image::from_fn(5, 4, |x, y| (x * y) as u8);
        let bytes = encode_bgr(&b, &g, &r);
        match decode(&bytes).unwrap() {
            Decoded::Bgr(ob, og, or) => {
                assert!(ob.pixels_eq(&b));
                assert!(og.pixels_eq(&g));
                assert!(or.pixels_eq(&r));
            }
            _ => panic!("expected bgr"),
        }
    }

    #[test]
    fn file_size_matches_paper_for_8mpx() {
        // The paper quotes ~23MB for a 3264x2448 bitmap — that matches a
        // 24-bit file: 3264*3 bytes per row (already 4-byte aligned) * 2448.
        let row = row_size_bytes(3264, 24);
        let total = FILE_HEADER_LEN + INFO_HEADER_LEN + row * 2448;
        let mb = total as f64 / (1024.0 * 1024.0);
        assert!((22.0..24.0).contains(&mb), "size {mb} MB");
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(decode(b"hello"), Err(BmpError::Truncated)));
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = encode_gray(&Image::from_fn(4, 4, |_, _| 0));
        bytes[0] = b'X';
        match decode(&bytes) {
            Err(BmpError::BadMagic) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn rejects_truncated_pixels() {
        let bytes = encode_gray(&Image::from_fn(8, 8, |x, _| x as u8));
        match decode(&bytes[..bytes.len() - 10]) {
            Err(BmpError::Truncated) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn hostile_header_sizes_are_truncated_not_panics() {
        let mut bytes = encode_gray(&Image::from_fn(4, 4, |_, _| 0));
        bytes[22..26].copy_from_slice(&i32::MIN.to_le_bytes()); // top-down height
        assert_eq!(decode(&bytes).unwrap_err(), BmpError::Truncated);
        bytes[18..22].copy_from_slice(&i32::MAX.to_le_bytes()); // width
        bytes[10..14].copy_from_slice(&u32::MAX.to_le_bytes()); // pixel offset
        assert_eq!(decode(&bytes).unwrap_err(), BmpError::Truncated);
    }

    #[test]
    fn error_display_is_descriptive() {
        assert!(BmpError::Unsupported("compressed BMP")
            .to_string()
            .contains("compressed"));
    }
}
