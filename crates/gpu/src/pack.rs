//! Packing 8-byte tuples into the simulator's `u64` device words.
//!
//! A device tuple is `key | payload << 32` — the same layout a CUDA kernel
//! gets from an 8-byte vectorized load of a `{u32 key; u32 payload;}`
//! struct.

use std::borrow::Cow;

use skewjoin_common::{JoinError, Key, Payload, Relation, Tuple};
use skewjoin_gpu_sim::BufferId;

use crate::backend::GpuBackend;

/// Packs a tuple into a device word.
#[inline(always)]
pub fn pack(t: Tuple) -> u64 {
    (t.key as u64) | ((t.payload as u64) << 32)
}

/// Unpacks a device word into a tuple.
#[inline(always)]
pub fn unpack(word: u64) -> Tuple {
    Tuple::new(word as Key, (word >> 32) as Payload)
}

/// Views a run of device words as tuples, without a copy where the layouts
/// agree. On a little-endian host the word `key | payload << 32` keeps the
/// key in its low four bytes, which is [`Tuple`]'s `#[repr(C)]` layout.
pub fn as_tuples(words: &[u64]) -> Cow<'_, [Tuple]> {
    const _: () = assert!(
        std::mem::size_of::<Tuple>() == 8
            && std::mem::align_of::<Tuple>() <= std::mem::align_of::<u64>()
    );
    if cfg!(target_endian = "little") {
        // SAFETY: `Tuple` is two `u32`s under `#[repr(C)]`, 8 bytes with
        // an alignment no stricter than `u64`'s (asserted above), and any
        // bits are a valid `Tuple`; on a little-endian host each word's low
        // half, the key, sits at offset 0 and its high half, the payload,
        // at offset 4, as in `Tuple`. The view borrows `words`.
        Cow::Borrowed(unsafe { std::slice::from_raw_parts(words.as_ptr().cast(), words.len()) })
    } else {
        Cow::Owned(words.iter().map(|&w| unpack(w)).collect())
    }
}

/// Key half of a packed tuple.
#[inline(always)]
pub fn key_of(word: u64) -> Key {
    word as Key
}

/// Payload half of a packed tuple.
#[inline(always)]
pub fn payload_of(word: u64) -> Payload {
    (word >> 32) as Payload
}

/// Uploads a relation into a fresh device buffer (host-side transfer; the
/// paper joins GPU-resident data, so no cost is charged). `label` names the
/// relation in the out-of-memory error (e.g. `"table R"`).
pub fn upload_relation(
    backend: &mut dyn GpuBackend,
    relation: &Relation,
    label: &str,
) -> Result<BufferId, JoinError> {
    let buf = backend.alloc(
        relation.len(),
        8,
        &format!("{label} ({} tuples)", relation.len()),
    )?;
    let words: Vec<u64> = relation.iter().map(|&t| pack(t)).collect();
    backend.host_upload(buf, 0, &words);
    Ok(buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SimBackend;
    use skewjoin_gpu_sim::DeviceSpec;

    #[test]
    fn pack_roundtrip() {
        let tuples = [
            Tuple::new(0, 0),
            Tuple::new(u32::MAX, 0),
            Tuple::new(0, u32::MAX),
            Tuple::new(0xDEAD_BEEF, 0x1234_5678),
        ];
        for t in tuples {
            assert_eq!(unpack(pack(t)), t);
            assert_eq!(key_of(pack(t)), t.key);
            assert_eq!(payload_of(pack(t)), t.payload);
        }
        let words: Vec<u64> = tuples.iter().map(|&t| pack(t)).collect();
        assert_eq!(*as_tuples(&words), tuples);
        assert!(as_tuples(&[]).is_empty());
    }

    #[test]
    fn upload_places_all_tuples() {
        let mut backend = SimBackend::new(DeviceSpec::tiny(1 << 16));
        let rel = Relation::from_keys(&[3, 1, 4, 1, 5]);
        let buf = upload_relation(&mut backend, &rel, "table R").unwrap();
        assert_eq!(backend.buffer_len(buf), 5);
        assert_eq!(unpack(backend.host_read(buf, 2)), Tuple::new(4, 2));
    }

    #[test]
    fn upload_fails_with_typed_error_when_out_of_memory() {
        let mut backend = SimBackend::new(DeviceSpec::tiny(16));
        let rel = Relation::from_keys(&[1, 2, 3]);
        match upload_relation(&mut backend, &rel, "table R") {
            Err(JoinError::GpuResourceExhausted(msg)) => {
                assert!(msg.contains("table R (3 tuples)"), "{msg}");
            }
            other => panic!("expected GpuResourceExhausted, got {other:?}"),
        }
    }
}
