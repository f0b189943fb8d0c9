package core

import (
	"testing"

	"repro/internal/policy"
)

// The store records must survive a round trip, and a blob cut anywhere —
// what a torn replica write would leave — must fail to decode, not panic
// or yield a partial record (shard failover rebuilds UEs from these).
func TestStoreRecordRoundTrip(t *testing.T) {
	attr := policy.Attributes{Provider: "A", Plan: "silver", DeviceType: "phone",
		Model: "m1", OSVersion: "7.1", Roaming: true, Parental: true}
	ue := UE{IMSI: "001010000000042", Attr: attr, PermIP: 0x64400001, BS: 17, UEID: 9, LocIP: 0x0a001109}

	blob := AppendUERecord(nil, &ue)
	got, err := DecodeUERecord(blob)
	if err != nil || got != ue {
		t.Fatalf("UE round trip = %+v, %v; want %+v", got, err, ue)
	}
	for n := 0; n < len(blob); n++ {
		if _, err := DecodeUERecord(blob[:n]); err == nil {
			t.Fatalf("UE record cut to %d of %d bytes decoded", n, len(blob))
		}
	}

	sub := AppendSubscriberRecord(nil, attr)
	gotAttr, err := DecodeSubscriberRecord(sub)
	if err != nil || gotAttr != attr {
		t.Fatalf("subscriber round trip = %+v, %v; want %+v", gotAttr, err, attr)
	}
	for n := 0; n < len(sub); n++ {
		if _, err := DecodeSubscriberRecord(sub[:n]); err == nil {
			t.Fatalf("subscriber record cut to %d of %d bytes decoded", n, len(sub))
		}
	}

	blob[0], sub[0] = ueRecordVersion+1, ueRecordVersion+1
	if _, err := DecodeUERecord(blob); err == nil {
		t.Fatal("UE record of an unknown version decoded")
	}
	if _, err := DecodeSubscriberRecord(sub); err == nil {
		t.Fatal("subscriber record of an unknown version decoded")
	}
}
