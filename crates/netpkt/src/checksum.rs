/// The Internet checksum (RFC 1071): one's-complement sum of 16-bit words.
///
/// `data` may have odd length; the final byte is padded with zero as the
/// high octet of the last word. The return value is the final complemented
/// checksum ready to be written into a header field.
pub(crate) fn internet_checksum(chunks: &[&[u8]]) -> u16 {
    let mut sum = 0u32;
    // A carry byte between chunks keeps word alignment across chunk
    // boundaries, so callers can pass pseudo-header and payload separately
    // only when each chunk except the last is even-length (asserted).
    for (i, chunk) in chunks.iter().enumerate() {
        if i + 1 < chunks.len() {
            debug_assert!(chunk.len() % 2 == 0, "only the final chunk may be odd-length");
        }
        let mut iter = chunk.chunks_exact(2);
        for w in &mut iter {
            sum += u16::from_be_bytes([w[0], w[1]]) as u32;
        }
        if let [last] = iter.remainder() {
            sum += u16::from_be_bytes([*last, 0]) as u32;
        }
    }
    while sum > 0xFFFF {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_example() {
        // The worked example from RFC 1071 §3.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        let cks = internet_checksum(&[&data]);
        assert_eq!(cks, !0xddf2);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        assert_eq!(internet_checksum(&[&[0xAB]]), internet_checksum(&[&[0xAB, 0x00]]));
    }

    #[test]
    fn verifying_a_checksummed_block_yields_zero() {
        let mut data = vec![1u8, 2, 3, 4, 5, 6, 0, 0];
        let cks = internet_checksum(&[&data]);
        data[6..8].copy_from_slice(&cks.to_be_bytes());
        assert_eq!(internet_checksum(&[&data]), 0);
    }

    #[test]
    fn split_across_chunks_matches_contiguous() {
        let data = [10u8, 20, 30, 40, 50, 60];
        let whole = internet_checksum(&[&data]);
        let split = internet_checksum(&[&data[..2], &data[2..]]);
        assert_eq!(whole, split);
    }

    #[test]
    fn empty_input() {
        assert_eq!(internet_checksum(&[]), 0xFFFF);
    }
}
