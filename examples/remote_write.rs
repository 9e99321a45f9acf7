//! The asynchronous remote-write primitive (§3.1 step 7): a producer node
//! pushes sensor readings straight into a consumer's registered user-memory
//! region — the consumer never calls receive.
//!
//! ```text
//! cargo run --example remote_write
//! ```

use bytes::Bytes;
use clic::prelude::*;

fn main() {
    let cluster = Cluster::build(&ClusterConfig::paper_pair());
    let mut sim = Sim::new(0);

    let producer_pid = cluster.nodes[0].kernel.borrow_mut().processes.spawn();
    let consumer_pid = cluster.nodes[1].kernel.borrow_mut().processes.spawn();

    const REGION: u16 = 9;
    let producer = ClicPort::bind(&cluster.nodes[0].clic(), producer_pid, 1);
    cluster.nodes[1]
        .clic()
        .borrow_mut()
        .register_remote_write(consumer_pid, REGION);

    // Producer: a burst of readings, no coordination with the consumer.
    let dst = cluster.nodes[1].mac;
    for reading in 0..5u32 {
        let mut sample = vec![0u8; 256];
        sample[..4].copy_from_slice(&reading.to_be_bytes());
        producer.remote_write(&mut sim, dst, REGION, Bytes::from(sample));
    }
    sim.run();

    // Consumer: polls its region whenever it pleases — the data is already
    // in its memory.
    let written = cluster.nodes[1]
        .clic()
        .borrow_mut()
        .take_remote_writes(REGION);
    println!(
        "consumer found {} readings in its region at t = {} (no recv() was ever called):",
        written.len(),
        sim.now()
    );
    for msg in &written {
        let id = u32::from_be_bytes([msg.data[0], msg.data[1], msg.data[2], msg.data[3]]);
        println!("  reading #{id}: {} bytes from {}", msg.data.len(), msg.src);
    }
    assert_eq!(written.len(), 5);
}
