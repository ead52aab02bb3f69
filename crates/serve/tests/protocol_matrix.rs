//! Protocol corruption matrix: truncate well-formed LOAD / LIST /
//! SUBSCRIBE / SCORE_AS frames at every byte boundary (sampled for the
//! large LOAD body) and flip individual bytes, firing each mutant at a
//! live server. The server must answer every *complete* mutant frame
//! with a typed status (or close the connection cleanly) and keep
//! serving fresh connections afterwards — no panic, no hang, no torn
//! state. A final PING proves the reactor survived the whole matrix.

use cfa_core::{
    AnomalyDetector, CrossFeatureModel, FittedThreshold, ModelArtifact, ScoreMethod,
    FORMAT_VERSION, MAGIC,
};
use cfa_ml::persist::{fnv1a64, Persist, Writer};
use cfa_ml::{AnyLearner, Learner, NaiveBayes, NominalTable};
use cfa_serve::protocol::{
    put_name, put_u32, OP_LIST, OP_LOAD, OP_SCORE_AS, OP_SUBSCRIBE, STATUS_MALFORMED, STATUS_OK,
};
use cfa_serve::{Client, Server, ServerConfig};
use manet_features::{EqualFrequencyDiscretizer, FeatureMatrix};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

fn tiny_artifact() -> ModelArtifact {
    let rows: Vec<Vec<f64>> = (0..80)
        .map(|i| {
            let a = f64::from(i % 4);
            vec![a * 10.0, a * 10.0 + 1.0, f64::from(i % 2)]
        })
        .collect();
    let matrix = FeatureMatrix {
        names: vec!["a".into(), "b".into(), "c".into()],
        times: (0..80).map(f64::from).collect(),
        rows,
    };
    let disc = EqualFrequencyDiscretizer::fit(&matrix, 4, None, 7);
    let table = disc.transform(&matrix).expect("same schema");
    let model = CrossFeatureModel::train(&AnyLearner::Bayes(NaiveBayes::default()), &table);
    let detector = AnomalyDetector::with_threshold(model, ScoreMethod::AvgProbability, 0.25);
    ModelArtifact {
        spec: None,
        discretizer: disc,
        detector,
        fitted: FittedThreshold {
            threshold: 0.25,
            false_alarm_rate: 0.05,
        },
        smoothing: 1,
    }
}

/// A complete request frame (length prefix included) for each op family.
fn wellformed_frames() -> Vec<(&'static str, Vec<u8>)> {
    let artifact_bytes = {
        let mut buf = Vec::new();
        tiny_artifact().save(&mut buf).expect("save");
        buf
    };
    let mut frames = Vec::new();

    let mut load = Vec::new();
    load.push(OP_LOAD);
    put_name(&mut load, "mutant");
    load.extend_from_slice(&artifact_bytes);
    frames.push(("LOAD", framed(&load)));

    frames.push(("LIST", framed(&[OP_LIST])));

    let mut subscribe = Vec::new();
    subscribe.push(OP_SUBSCRIBE);
    put_name(&mut subscribe, "default");
    frames.push(("SUBSCRIBE", framed(&subscribe)));

    let mut score_as = Vec::new();
    score_as.push(OP_SCORE_AS);
    put_name(&mut score_as, "default");
    put_u32(&mut score_as, 1); // one row
    put_u32(&mut score_as, 3); // three columns
    for v in [1.0f64, 2.0, 3.0] {
        score_as.extend_from_slice(&v.to_le_bytes());
    }
    frames.push(("SCORE_AS", framed(&score_as)));

    frames
}

fn framed(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(4 + payload.len());
    put_u32(&mut frame, payload.len() as u32);
    frame.extend_from_slice(payload);
    frame
}

/// Sends `bytes` on a fresh connection and classifies the outcome: the
/// server either answers one complete frame (returning its status byte)
/// or closes the connection cleanly. Panics on a hang (read timeout) —
/// that is the failure mode the matrix exists to catch.
fn fire(addr: SocketAddr, bytes: &[u8], what: &str) -> Option<u8> {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    s.write_all(bytes).expect("write mutant");
    // Truncated frames leave the server waiting for more input, which is
    // correct — signal EOF so it gives up on the frame.
    s.shutdown(std::net::Shutdown::Write).expect("half close");
    let mut len4 = [0u8; 4];
    if s.read_exact(&mut len4).is_err() {
        return None; // clean close without a response
    }
    let len = u32::from_le_bytes(len4) as usize;
    assert!(
        (1..=8 << 20).contains(&len),
        "{what}: absurd response length {len}"
    );
    let mut payload = vec![0u8; len];
    s.read_exact(&mut payload)
        .unwrap_or_else(|e| panic!("{what}: torn response: {e}"));
    Some(payload[0])
}

#[test]
fn corrupted_frames_get_typed_answers_and_the_server_survives() {
    let server = Server::bind(tiny_artifact(), "127.0.0.1:0", ServerConfig::default())
        .expect("bind loopback");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || server.run().expect("server run"));

    for (what, frame) in wellformed_frames() {
        // Sanity: the uncorrupted frame is answered.
        let status = fire(addr, &frame, what).unwrap_or_else(|| panic!("{what}: no answer"));
        assert_eq!(status, STATUS_OK, "{what}: well-formed frame must succeed");

        // Truncation at every boundary (sampled beyond the header region
        // for the megabyte-scale LOAD frame).
        let cuts: Vec<usize> = if frame.len() > 256 {
            (0..64)
                .chain((64..frame.len()).step_by(frame.len() / 97))
                .collect()
        } else {
            (0..frame.len()).collect()
        };
        for cut in cuts {
            // A truncated frame can only time out (incomplete) or be
            // answered with a typed error; `fire` panics on torn replies.
            let _ = fire(addr, &frame[..cut], what);
        }

        // Byte flips across the whole frame (every byte for small frames,
        // sampled for LOAD), XORing with 0xFF so the byte always changes.
        let flips: Vec<usize> = if frame.len() > 256 {
            (0..64)
                .chain((64..frame.len()).step_by(frame.len() / 53))
                .collect()
        } else {
            (0..frame.len()).collect()
        };
        for flip in flips {
            let mut mutant = frame.clone();
            mutant[flip] ^= 0xFF;
            // Flipping length-prefix bytes can declare a longer frame than
            // is sent (times out, clean close on EOF) or a huge one
            // (TOO_LARGE). Body flips must produce a typed status.
            let _ = fire(addr, &mutant, what);
        }

        // The server is still healthy after this family's mutants.
        let mut probe = Client::connect(addr, Duration::from_secs(5)).expect("reconnect");
        probe
            .ping()
            .unwrap_or_else(|e| panic!("{what}: server unhealthy after matrix: {e}"));
    }

    let mut client = Client::connect(addr, Duration::from_secs(5)).expect("final connect");
    let stats = client.ping().expect("final ping");
    assert!(
        stats.protocol_errors > 0,
        "the matrix must have tripped typed errors"
    );
    client.shutdown_server().expect("shutdown");
    handle.join().expect("join server");
}

/// A checksum-valid artifact whose NB sub-models 0–1 were trained on
/// three columns and sub-model 2 on four: it decodes field by field, but
/// its ensemble cannot compile.
fn mismatched_width_artifact() -> Vec<u8> {
    let good = tiny_artifact();
    let wide = NominalTable::new(
        (0..4).map(|i| format!("f{i}")).collect(),
        vec![4; 4],
        (0..40).map(|i| vec![(i % 4) as u8; 4]).collect(),
    )
    .expect("wide table");
    let mut w = Writer::new();
    w.u8(0); // no feature spec
    good.discretizer.write_into(&mut w);
    w.u8(1); // Algorithm 3
    w.seq_len(3);
    let subs = good.detector.model().sub_models();
    subs[0].write_into(&mut w);
    subs[1].write_into(&mut w);
    AnyLearner::Bayes(NaiveBayes::default())
        .fit(&wide, 2)
        .write_into(&mut w);
    w.f64(0.25);
    w.f64(0.05);
    w.u32(1);
    let payload = w.into_bytes();
    let mut bytes = MAGIC.to_vec();
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);
    bytes
}

#[test]
fn load_of_an_ensemble_that_cannot_compile_is_malformed_and_the_server_keeps_scoring() {
    let server = Server::bind(tiny_artifact(), "127.0.0.1:0", ServerConfig::default())
        .expect("bind loopback");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || server.run().expect("server run"));

    let mut load = vec![OP_LOAD];
    put_name(&mut load, "mismatched");
    load.extend_from_slice(&mismatched_width_artifact());
    assert_eq!(
        fire(addr, &framed(&load), "LOAD"),
        Some(STATUS_MALFORMED),
        "an ensemble that cannot compile must be refused with a typed status"
    );

    let mut client = Client::connect(addr, Duration::from_secs(5)).expect("connect");
    let scored = client
        .score_batch(&[1.0, 2.0, 3.0], 3)
        .expect("the server still scores");
    assert_eq!(scored.len(), 1);
    let names: Vec<String> = client
        .list_models()
        .expect("list")
        .into_iter()
        .map(|m| m.name)
        .collect();
    assert_eq!(names, ["default"], "the refused model was not registered");
    client.shutdown_server().expect("shutdown");
    handle.join().expect("join server");
}
