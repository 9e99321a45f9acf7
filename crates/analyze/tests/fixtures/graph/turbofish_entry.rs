//! Graph fixture: a job entry point whose every call is a turbofish.

pub fn run_turbofish_job() -> u64 {
    let frame = Frame::filled::<Vec<u8>>(vec![1, 2, 3, 4]);
    let head = frame.split_header::<4>().unwrap_or_default();
    zeroed::<u64>() + u64::from(head[0])
}
