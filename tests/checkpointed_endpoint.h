// In-process endpoint whose ingest path is crash-durable.
//
// LocalEndpoint (runtime/endpoint.h) feeds samples straight into the slave;
// this variant routes each batch through a core::SlaveCheckpointer first, so
// every streamed second is journaled before it mutates the slave's models
// (journal-then-ingest per batch, see fchain/recovery.h) and the slave
// auto-checkpoints on the checkpointer's sample-time cadence. Analysis RPCs
// go straight to the slave — they read state, so they need no durability
// hop. Plugging this into OnlineMonitor::addEndpoint gives the tests an
// in-process online deployment whose slaves survive a crash with zero
// learned-history loss: recover() rebuilds them bit-identically and
// streaming resumes where it stopped. A deployed slave gets the same
// durability from SlaveService, which routes every ingest RPC through its
// checkpointer.
#pragma once

#include <vector>

#include "fchain/recovery.h"
#include "runtime/endpoint.h"

namespace fchain::online {

class CheckpointedEndpoint final : public runtime::SlaveEndpoint {
 public:
  /// Both the slave and its checkpointer must outlive the endpoint, and the
  /// checkpointer must wrap this same slave.
  CheckpointedEndpoint(core::FChainSlave* slave,
                       core::SlaveCheckpointer* checkpointer)
      : slave_(slave), checkpointer_(checkpointer) {}

  HostId host() const override { return slave_->host(); }

  runtime::ComponentListReply listComponents() override {
    return {runtime::EndpointStatus::Ok, slave_->components()};
  }

  runtime::AnalyzeBatchReply analyzeBatch(
      const runtime::AnalyzeBatchRequest& request) override {
    runtime::AnalyzeBatchReply reply;
    reply.status = runtime::EndpointStatus::Ok;
    reply.findings =
        slave_->analyzeBatch(request.components, request.violation_time);
    return reply;
  }

  runtime::IngestReply ingest(const runtime::IngestRequest& request) override {
    std::vector<persist::SampleRecord> batch;
    batch.reserve(request.more.size() + 1);
    request.forEachSample([&batch](const persist::SampleRecord& record) {
      batch.push_back(record);
    });
    checkpointer_->ingestBatch(batch);
    return {runtime::EndpointStatus::Ok, 0.0};
  }

 private:
  core::FChainSlave* slave_;
  core::SlaveCheckpointer* checkpointer_;
};

}  // namespace fchain::online
