//! Hostile-input tests: malformed DM protocol bodies and raw garbage
//! datagrams must produce error responses (or be ignored), never crash the
//! server, and never corrupt the page pool.

use bytes::Bytes;
use dmcommon::{DmError, Ref};
use dmnet::proto::{parse_response, req, Writer};
use dmnet::{start_pool, DmNetClient, DmServerConfig};
use memsim::ModelParams;
use proptest::prelude::*;
use rpclib::RpcBuilder;
use simcore::Sim;
use simnet::{FabricConfig, Network, NicConfig};

#[test]
fn malformed_bodies_get_error_responses() {
    let sim = Sim::new();
    sim.block_on(async move {
        let net = Network::new(FabricConfig::default(), 3);
        let dm_node = net.add_node("dm", NicConfig::default());
        let c_node = net.add_node("c", NicConfig::default());
        let pool = start_pool(
            &net,
            &[dm_node],
            &ModelParams::new(),
            DmServerConfig::default(),
        );
        let rpc = RpcBuilder::new(&net, c_node, 100).build();

        // Truncated bodies for every op that requires arguments.
        for ty in [
            req::ALLOC,
            req::FREE,
            req::CREATE_REF,
            req::MAP_REF,
            req::READ,
            req::WRITE,
            req::RELEASE_REF,
            req::READ_REF,
        ] {
            let resp = rpc
                .call(pool[0].addr(), ty, Bytes::from_static(&[1, 2, 3]))
                .await
                .expect("transport ok");
            let err = parse_response(&resp).expect_err("must be a DM error");
            assert!(
                matches!(
                    err,
                    DmError::Malformed | DmError::InvalidAddress | DmError::InvalidRef
                ),
                "op {ty}: unexpected error {err:?}"
            );
        }
        // Bogus pid / addresses.
        let resp = rpc
            .call(pool[0].addr(), req::ALLOC, {
                let mut b = Vec::new();
                b.extend_from_slice(&999_999u32.to_le_bytes());
                b.extend_from_slice(&4096u64.to_le_bytes());
                Bytes::from(b)
            })
            .await
            .unwrap();
        assert!(parse_response(&resp).is_err(), "unknown pid rejected");

        // The server still works afterwards.
        let dm = DmNetClient::connect(rpc.clone(), vec![pool[0].addr()])
            .await
            .unwrap();
        let a = dm.ralloc(4096).await.unwrap();
        dm.rwrite(a, &Bytes::from_static(b"still alive"))
            .await
            .unwrap();
        assert_eq!(&dm.rread(a, 11).await.unwrap()[..], b"still alive");

        // A live VA or ref key with any high bit set (48..=63, but never
        // the gkey bit on a ref key) names nothing: every op that takes
        // one fails typed, from the owning endpoint itself, and never
        // reaches the live region or ref it would alias in the low bits.
        let r = dm.create_ref(a, 4096).await.unwrap();
        let Ref::Net { key, .. } = r else {
            unreachable!("a net client mints net refs")
        };
        let typed = |resp: Bytes, what: &str| {
            let err = parse_response(&resp).expect_err(what);
            assert!(
                matches!(
                    err,
                    DmError::Malformed | DmError::InvalidAddress | DmError::InvalidRef
                ),
                "{what}: unexpected error {err:?}"
            );
        };
        for bit in [48, 52, 62, 63] {
            let va = a.va | (1u64 << bit);
            let ops = [
                (req::READ, Writer::new().pid(a.pid).u64(va).u64(4)),
                (req::WRITE, Writer::new().pid(a.pid).u64(va).bytes(b"evil")),
                (req::FREE, Writer::new().pid(a.pid).u64(va)),
                (req::CREATE_REF, Writer::new().pid(a.pid).u64(va).u64(4096)),
                (
                    req::WRITE_CREATE_REF,
                    Writer::new().pid(a.pid).u64(va).bytes(b"evil"),
                ),
            ];
            for (ty, body) in ops {
                let resp = rpc.call(pool[0].addr(), ty, body.finish()).await.unwrap();
                typed(resp, &format!("op {ty} at VA bit {bit}"));
            }
            if bit == 63 {
                continue; // bit 63 marks a gkey, not a local ref key
            }
            let k = key | (1u64 << bit);
            let ops = [
                (req::MAP_REF, Writer::new().pid(a.pid).u64(k)),
                (req::READ_REF, Writer::new().u64(k).u64(0).u64(4)),
                (req::RELEASE_REF, Writer::new().u64(k)),
            ];
            for (ty, body) in ops {
                let resp = rpc.call(pool[0].addr(), ty, body.finish()).await.unwrap();
                typed(resp, &format!("op {ty} at key bit {bit}"));
            }
        }
        // The aliased region and ref are untouched.
        assert_eq!(&dm.rread(a, 11).await.unwrap()[..], b"still alive");
        assert_eq!(&dm.read_ref(&r, 0, 11).await.unwrap()[..], b"still alive");
        dm.release_ref(&r).await.unwrap();
        pool[0].with_page_manager(|pm| pm.check_invariants());
    });
}

#[test]
fn raw_garbage_datagrams_are_ignored() {
    let sim = Sim::new();
    sim.block_on(async move {
        let net = Network::new(FabricConfig::default(), 9);
        let dm_node = net.add_node("dm", NicConfig::default());
        let c_node = net.add_node("c", NicConfig::default());
        let pool = start_pool(
            &net,
            &[dm_node],
            &ModelParams::new(),
            DmServerConfig::default(),
        );

        // Blast raw (non-RPC) datagrams straight at the DM port.
        let ep = net.bind(c_node, 4242);
        let rng = simcore::SimRng::new(5);
        for _ in 0..200 {
            let n = rng.gen_range(64) as usize;
            let mut buf = vec![0u8; n];
            rng.fill_bytes(&mut buf);
            ep.send_to(pool[0].addr(), Bytes::from(buf));
        }
        simcore::sleep(std::time::Duration::from_millis(1)).await;

        // Server is unharmed.
        let rpc = RpcBuilder::new(&net, c_node, 100).build();
        let dm = DmNetClient::connect(rpc, vec![pool[0].addr()])
            .await
            .unwrap();
        let a = dm.ralloc(8192).await.unwrap();
        dm.rwrite(a, &Bytes::from(vec![7u8; 8192])).await.unwrap();
        assert_eq!(
            dm.rread(a, 8192).await.unwrap(),
            Bytes::from(vec![7u8; 8192])
        );
    });
}

#[test]
fn pid_forgery_rejected() {
    let sim = Sim::new();
    sim.block_on(async move {
        let net = Network::new(FabricConfig::default(), 3);
        let dm_node = net.add_node("dm", NicConfig::default());
        let a_node = net.add_node("a", NicConfig::default());
        let b_node = net.add_node("b", NicConfig::default());
        let pool = start_pool(
            &net,
            &[dm_node],
            &ModelParams::new(),
            DmServerConfig::default(),
        );
        let pool_addrs = vec![pool[0].addr()];

        let alice = DmNetClient::connect(
            RpcBuilder::new(&net, a_node, 100).build(),
            pool_addrs.clone(),
        )
        .await
        .unwrap();
        let addr = alice.ralloc(4096).await.unwrap();
        alice
            .rwrite(addr, &Bytes::from_static(b"secret"))
            .await
            .unwrap();

        // Mallory forges Alice's (pid, va) in raw protocol messages from a
        // different endpoint: every pid-bearing op must be rejected.
        let mallory = RpcBuilder::new(&net, b_node, 100).build();
        let forged_read = {
            let mut b = Vec::new();
            b.extend_from_slice(&addr.pid.0.to_le_bytes());
            b.extend_from_slice(&addr.va.to_le_bytes());
            b.extend_from_slice(&6u64.to_le_bytes());
            Bytes::from(b)
        };
        let resp = mallory
            .call(pool[0].addr(), req::READ, forged_read)
            .await
            .unwrap();
        assert!(parse_response(&resp).is_err(), "forged read must fail");
        let forged_free = {
            let mut b = Vec::new();
            b.extend_from_slice(&addr.pid.0.to_le_bytes());
            b.extend_from_slice(&addr.va.to_le_bytes());
            Bytes::from(b)
        };
        let resp = mallory
            .call(pool[0].addr(), req::FREE, forged_free)
            .await
            .unwrap();
        assert!(parse_response(&resp).is_err(), "forged free must fail");

        // Alice is unaffected.
        assert_eq!(&alice.rread(addr, 6).await.unwrap()[..], b"secret");
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary bodies to arbitrary DM ops never panic the server and
    /// never violate page-pool invariants.
    #[test]
    fn fuzz_dm_protocol(
        msgs in proptest::collection::vec(
            (10u8..=20, proptest::collection::vec(any::<u8>(), 0..64)),
            1..30
        ),
    ) {
        let sim = Sim::new();
        sim.block_on(async move {
            let net = Network::new(FabricConfig::default(), 3);
            let dm_node = net.add_node("dm", NicConfig::default());
            let c_node = net.add_node("c", NicConfig::default());
            let pool = start_pool(
                &net,
                &[dm_node],
                &ModelParams::new(),
                DmServerConfig {
                    capacity_pages: 256,
                    ..Default::default()
                },
            );
            let rpc = RpcBuilder::new(&net, c_node, 100).build();
            for (ty, body) in msgs {
                // Any response (ok or error) is fine; no panic, no hang.
                let _ = rpc.call(pool[0].addr(), ty, Bytes::from(body)).await;
            }
            pool[0].with_page_manager(|pm| pm.check_invariants());
        });
    }
}
