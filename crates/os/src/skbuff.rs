//! The SK_BUFF abstraction.
//!
//! §3.1: "The SK_BUFF structure used by the drivers allows a fragmented
//! send, i.e. it is possible to send data which are not allocated in
//! contiguous memory addresses. Thus, SK_BUFF includes the pointers to the
//! headers and the data to be sent from the user space."
//!
//! Our `SkBuff` is exactly that pair of pointers: the composed protocol
//! header and the data, each a shared reference to where it lies. The
//! driver posts both to the NIC as two gather entries
//! ([`clic_hw::TxDescriptor`]), and the frame on the wire carries them as
//! its head and body, so sending never copies the data. `location`
//! records *where* the modelled system keeps the data, which is what
//! distinguishes the 0-copy path (scatter-gather straight out of user
//! memory) from the 1-copy path (a kernel buffer the CPU filled): the
//! bytes are identical, and whoever built a kernel-located SkBuff already
//! paid for that copy. The host does not make it: the data is the
//! sender's immutable buffer, shared, so a copy would change no byte.

use bytes::Bytes;

/// Where an SkBuff's data fragments live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataLocation {
    /// Pinned user pages — the 0-copy send path (path 2 of Figure 1).
    User,
    /// A kernel buffer — the 1-copy path (paths 3/4 of Figure 1) and
    /// every TCP/IP send.
    Kernel,
}

/// A socket buffer: protocol headers + payload fragments.
#[derive(Debug, Clone)]
pub struct SkBuff {
    /// Composed protocol headers (Ethernet-level payload prefix).
    pub header: Bytes,
    /// Payload data.
    pub data: Bytes,
    /// Where `data` resides.
    pub location: DataLocation,
    /// Pipeline-trace id (0 = untraced).
    pub trace: u64,
}

impl SkBuff {
    /// Build an SkBuff whose data is referenced in place in user memory
    /// (scatter-gather send, no CPU copy).
    pub fn zero_copy(header: Bytes, data: Bytes) -> SkBuff {
        SkBuff {
            header,
            data,
            location: DataLocation::User,
            trace: 0,
        }
    }

    /// Build an SkBuff whose data the model keeps in a kernel buffer. The
    /// caller charged that copy once; the data is the sender's bytes,
    /// shared, and a resend of the same buffer charges nothing again.
    pub fn in_kernel(header: Bytes, data: Bytes) -> SkBuff {
        SkBuff {
            header,
            data,
            location: DataLocation::Kernel,
            trace: 0,
        }
    }

    /// Tag with a pipeline-trace id.
    pub fn with_trace(mut self, id: u64) -> SkBuff {
        self.trace = id;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_copy_shares_no_bytes_cloned() {
        let data = Bytes::from(vec![9u8; 1000]);
        let skb = SkBuff::zero_copy(Bytes::from_static(b"HDR"), data.clone());
        assert_eq!(skb.location, DataLocation::User);
        // Bytes handles share the same backing storage: same pointer.
        assert_eq!(skb.data.as_ptr(), data.as_ptr());
    }

    #[test]
    fn staged_clones_storage() {
        // Staged data is kernel-located for the model and still the
        // caller's storage on the host: the SkBuff clones the handle.
        let data = Bytes::from(vec![7u8; 64]);
        let skb = SkBuff::in_kernel(Bytes::new(), data.clone());
        assert_eq!(skb.location, DataLocation::Kernel);
        assert_eq!(skb.data.as_ptr(), data.as_ptr());
        assert_eq!(skb.data, data);
    }

    #[test]
    fn empty_data_allowed() {
        let skb = SkBuff::zero_copy(Bytes::from_static(&[0xa]), Bytes::new());
        assert_eq!(skb.header.len() + skb.data.len(), 1);
        assert_eq!([&skb.header[..], &skb.data[..]].concat(), [0xa]);
    }
}
