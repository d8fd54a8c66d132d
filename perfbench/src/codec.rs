//! The benchmark's byte ↔ tensor payload codec.
//!
//! A payload is the request id (`u64`, little-endian) followed by the
//! tensor's `f32` values, little-endian. The server's batch function
//! echoes the id in front of the output values, so every response
//! carries proof of which request it answers, independently of the wire
//! protocol's correlation id. Values travel as raw bits: `-0.0` and NaN
//! payloads survive, which keeps the byte-for-byte output check exact.

/// Bytes of the id prefix.
pub const ID_LEN: usize = 8;

/// Encodes `id` and `values` into one payload.
pub fn encode(id: u64, values: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ID_LEN + 4 * values.len());
    out.extend_from_slice(&id.to_le_bytes());
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Decodes a payload that must hold exactly `len` values; `None` for any
/// other length.
pub fn decode(bytes: &[u8], len: usize) -> Option<(u64, Vec<f32>)> {
    if bytes.len() != ID_LEN + 4 * len {
        return None;
    }
    let (id, body) = bytes.split_at(ID_LEN);
    let id = u64::from_le_bytes(id.try_into().expect("split at ID_LEN"));
    let values = body
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("chunks of 4")))
        .collect();
    Some((id, values))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_keeps_id_and_bits() {
        let values = [1.5f32, -0.0, f32::NAN, f32::MIN_POSITIVE, -3.25e7];
        let bytes = encode(0xDEAD_BEEF_0042, &values);
        assert_eq!(bytes.len(), ID_LEN + 4 * values.len());
        let (id, back) = decode(&bytes, values.len()).expect("well-formed");
        assert_eq!(id, 0xDEAD_BEEF_0042);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&values));
    }

    #[test]
    fn wrong_length_is_refused() {
        let bytes = encode(3, &[1.0, 2.0]);
        assert!(decode(&bytes, 3).is_none());
        assert!(decode(&bytes[..bytes.len() - 1], 2).is_none());
        assert!(decode(&[], 0).is_none());
        assert_eq!(decode(&encode(9, &[]), 0), Some((9, vec![])));
    }
}
