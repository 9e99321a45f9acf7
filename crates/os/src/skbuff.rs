//! The SK_BUFF abstraction.
//!
//! §3.1: "The SK_BUFF structure used by the drivers allows a fragmented
//! send, i.e. it is possible to send data which are not allocated in
//! contiguous memory addresses. Thus, SK_BUFF includes the pointers to the
//! headers and the data to be sent from the user space."
//!
//! Our `SkBuff` carries the real composed header bytes plus the data, and
//! records *where* the data lives. The location is what distinguishes the
//! 0-copy path (scatter-gather straight out of user memory) from the 1-copy
//! path (a kernel staging buffer the CPU filled): the bytes are identical,
//! but whoever built a kernel-located SkBuff already paid the copy cost.

use bytes::{BufMut, Bytes, BytesMut};

/// Where an SkBuff's data fragments live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataLocation {
    /// Pinned user pages — the 0-copy send path (path 2 of Figure 1).
    User,
    /// A kernel staging buffer — the 1-copy path (paths 3/4 of Figure 1).
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

    /// Build an SkBuff whose data was staged into kernel memory. The caller
    /// is responsible for charging the copy cost; this constructor
    /// physically clones the bytes so aliasing bugs in the protocol stacks
    /// cannot fake integrity.
    pub fn staged(header: Bytes, data: &Bytes) -> SkBuff {
        SkBuff {
            header,
            data: Bytes::copy_from_slice(data),
            location: DataLocation::Kernel,
            trace: 0,
        }
    }

    /// Tag with a pipeline-trace id.
    pub fn with_trace(mut self, id: u64) -> SkBuff {
        self.trace = id;
        self
    }

    /// Total bytes the NIC must read from host memory.
    pub fn wire_payload_len(&self) -> usize {
        self.header.len() + self.data.len()
    }

    /// Linearize header + data into the on-wire payload. (In the model this
    /// is how the scatter-gather DMA presents the frame; it is not a
    /// CPU copy.) Header-less buffers come back as the data itself.
    pub fn linearize(&self) -> Bytes {
        if self.header.is_empty() {
            return self.data.clone();
        }
        let mut out = BytesMut::with_capacity(self.wire_payload_len());
        out.put_slice(&self.header);
        out.put_slice(&self.data);
        out.freeze()
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
        let data = Bytes::from(vec![7u8; 64]);
        let skb = SkBuff::staged(Bytes::new(), &data);
        assert_eq!(skb.location, DataLocation::Kernel);
        assert_ne!(skb.data.as_ptr(), data.as_ptr());
        assert_eq!(skb.data, data);
    }

    #[test]
    fn linearize_concatenates() {
        let skb = SkBuff::zero_copy(Bytes::from_static(&[1, 2]), Bytes::from_static(&[3, 4, 5]));
        assert_eq!(skb.wire_payload_len(), 5);
        assert_eq!(&skb.linearize()[..], &[1, 2, 3, 4, 5]);
    }

    #[test]
    fn headerless_linearize_shares_the_data() {
        let data = Bytes::from(vec![4u8; 64]);
        let skb = SkBuff::zero_copy(Bytes::new(), data.clone());
        assert_eq!(skb.linearize().as_ptr(), data.as_ptr());
    }

    #[test]
    fn empty_data_allowed() {
        let skb = SkBuff::zero_copy(Bytes::from_static(&[0xa]), Bytes::new());
        assert_eq!(skb.wire_payload_len(), 1);
        assert_eq!(&skb.linearize()[..], &[0xa]);
    }
}
