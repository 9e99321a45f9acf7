//! Graph fixture for `dead-fn`: fns the job entry point reaches only
//! through turbofish calls (see `dead_fn_follows_turbofish_calls` in
//! lints.rs).

pub struct Frame {
    bytes: Vec<u8>,
}

impl Frame {
    /// Reached only as `frame.split_header::<4>()`.
    pub fn split_header<const N: usize>(&self) -> Option<[u8; N]> {
        self.bytes.get(..N)?.try_into().ok()
    }

    /// Reached only as `Frame::filled::<Vec<u8>>(…)`: nested generics
    /// close with two `>` puncts.
    pub fn filled<T: Into<Vec<u8>>>(bytes: T) -> Frame {
        Frame {
            bytes: bytes.into(),
        }
    }
}

/// Reached only as `zeroed::<u64>()`.
pub fn zeroed<T: Default>() -> T {
    T::default()
}
