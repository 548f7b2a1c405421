#include "robustness/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>

namespace betty {

namespace {

constexpr uint64_t kCheckpointMagic =
    0x42455454595F434BULL; // "BETTY_CK"
// Version 2 added the partitioner's warm-start state.
constexpr uint64_t kCheckpointVersion = 2;

/** Checkpoint tensors live on the host: keep their allocations out of
 * the device memory model even when a DeviceMemoryModel::Scope spans
 * the whole run (as train_cli's does). */
struct HostAllocationScope
{
    AllocationObserver* previous;
    HostAllocationScope() : previous(setAllocationObserver(nullptr)) {}
    ~HostAllocationScope() { setAllocationObserver(previous); }
    HostAllocationScope(const HostAllocationScope&) = delete;
    HostAllocationScope& operator=(const HostAllocationScope&) = delete;
};

/** FNV-1a over a byte range (the same hash the determinism tests
 * use for parameters, so corruption detection is self-consistent). */
uint64_t
fnv1a(const char* data, size_t size)
{
    uint64_t hash = 1469598103934665603ull;
    for (size_t i = 0; i < size; ++i) {
        hash ^= uint64_t(uint8_t(data[i]));
        hash *= 1099511628211ull;
    }
    return hash;
}

void
appendU64(std::string& out, uint64_t value)
{
    char bytes[sizeof(value)];
    std::memcpy(bytes, &value, sizeof(value));
    out.append(bytes, sizeof(value));
}

void
appendTensor(std::string& out, const Tensor& tensor)
{
    appendU64(out, uint64_t(tensor.rows()));
    appendU64(out, uint64_t(tensor.cols()));
    out.append(reinterpret_cast<const char*>(tensor.data()),
               size_t(tensor.bytes()));
}

/** Bounded in-memory reader over the checksummed payload. */
struct PayloadReader
{
    const char* cursor;
    size_t remaining;
    const std::string& path;
    IoStatus status;

    bool
    fail(IoError error, const std::string& message)
    {
        if (status.ok()) {
            status.error = error;
            status.message = message;
        }
        return false;
    }

    bool
    readRaw(void* out, size_t bytes, const char* what)
    {
        if (bytes > remaining)
            return fail(IoError::Truncated,
                        "'" + path + "' is truncated (while reading " +
                            std::string(what) + ")");
        std::memcpy(out, cursor, bytes);
        cursor += bytes;
        remaining -= bytes;
        return true;
    }

    bool
    readU64(uint64_t& value, const char* what)
    {
        return readRaw(&value, sizeof(value), what);
    }

    bool
    readTensor(Tensor& tensor, const char* what)
    {
        uint64_t rows = 0, cols = 0;
        if (!readU64(rows, what) || !readU64(cols, what))
            return false;
        if (rows > (uint64_t(1) << 32) || cols > (uint64_t(1) << 32) ||
            (cols > 0 &&
             rows > remaining / (cols * sizeof(float))))
            return fail(IoError::Truncated,
                        "'" + path + "': tensor '" +
                            std::string(what) +
                            "' larger than the file");
        tensor = Tensor(int64_t(rows), int64_t(cols));
        return tensor.numel() == 0 ||
               readRaw(tensor.data(), size_t(tensor.bytes()), what);
    }
};

} // namespace

IoStatus
saveCheckpoint(const TrainCheckpoint& checkpoint,
               const std::string& path)
{
    if (checkpoint.adamM.size() != checkpoint.params.size() ||
        checkpoint.adamV.size() != checkpoint.params.size())
        return {IoError::ShapeMismatch,
                "checkpoint moment count disagrees with parameter "
                "count"};
    if (checkpoint.warmStart.outputs.size() !=
        checkpoint.warmStart.parts.size())
        return {IoError::ShapeMismatch,
                "checkpoint warm-start outputs and parts differ in "
                "size"};

    std::string payload;
    appendU64(payload, uint64_t(checkpoint.epochsCompleted));
    appendU64(payload, uint64_t(checkpoint.lastK));
    appendU64(payload, checkpoint.samplerSeed);
    appendU64(payload, checkpoint.samplerCallIndex);
    appendU64(payload, uint64_t(checkpoint.adamStepCount));
    appendU64(payload, checkpoint.params.size());
    for (size_t i = 0; i < checkpoint.params.size(); ++i) {
        appendTensor(payload, checkpoint.params[i]);
        appendTensor(payload, checkpoint.adamM[i]);
        appendTensor(payload, checkpoint.adamV[i]);
    }
    const WarmStartState& warm = checkpoint.warmStart;
    appendU64(payload, uint64_t(warm.k));
    appendU64(payload, uint64_t(warm.coldCut));
    appendU64(payload, uint64_t(warm.coldEdgeWeight));
    appendU64(payload, warm.outputs.size());
    for (size_t i = 0; i < warm.outputs.size(); ++i) {
        appendU64(payload, uint64_t(warm.outputs[i]));
        appendU64(payload, uint64_t(warm.parts[i]));
    }

    std::string out;
    appendU64(out, kCheckpointMagic);
    appendU64(out, kCheckpointVersion);
    out += payload;
    appendU64(out, fnv1a(payload.data(), payload.size()));

    std::FILE* file = std::fopen(path.c_str(), "wb");
    if (!file)
        return {IoError::WriteFailed,
                "cannot open '" + path + "' for writing"};
    const size_t written =
        std::fwrite(out.data(), 1, out.size(), file);
    const bool closed_ok = std::fclose(file) == 0;
    if (written != out.size() || !closed_ok)
        return {IoError::WriteFailed,
                "short write to '" + path + "'"};
    return {};
}

IoStatus
loadCheckpoint(TrainCheckpoint& checkpoint, const std::string& path)
{
    std::FILE* file = std::fopen(path.c_str(), "rb");
    if (!file)
        return {IoError::NotFound, "cannot open '" + path + "'"};
    std::string bytes;
    char buffer[1 << 16];
    size_t got = 0;
    while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0)
        bytes.append(buffer, got);
    std::fclose(file);

    // Frame: magic + version, payload, trailing checksum.
    if (bytes.size() < 3 * sizeof(uint64_t))
        return {IoError::Truncated,
                "'" + path + "' is too short to be a checkpoint"};
    uint64_t magic = 0, version = 0, stored_hash = 0;
    std::memcpy(&magic, bytes.data(), sizeof(magic));
    std::memcpy(&version, bytes.data() + sizeof(uint64_t),
                sizeof(version));
    std::memcpy(&stored_hash,
                bytes.data() + bytes.size() - sizeof(uint64_t),
                sizeof(stored_hash));
    if (magic != kCheckpointMagic)
        return {IoError::BadMagic,
                "'" + path + "' is not a Betty checkpoint file"};
    if (version != kCheckpointVersion)
        return {IoError::BadVersion,
                "'" + path +
                    "' has an unsupported checkpoint version"};

    const char* payload = bytes.data() + 2 * sizeof(uint64_t);
    const size_t payload_size = bytes.size() - 3 * sizeof(uint64_t);
    if (fnv1a(payload, payload_size) != stored_hash)
        return {IoError::CorruptValues,
                "'" + path +
                    "': checksum mismatch (truncated or corrupted "
                    "checkpoint)"};

    HostAllocationScope host_alloc;
    PayloadReader r{payload, payload_size, path, {}};
    TrainCheckpoint loaded;
    uint64_t epochs = 0, last_k = 0, adam_t = 0, num_params = 0;
    if (!r.readU64(epochs, "epoch cursor") ||
        !r.readU64(last_k, "last K") ||
        !r.readU64(loaded.samplerSeed, "sampler seed") ||
        !r.readU64(loaded.samplerCallIndex, "sampler call index") ||
        !r.readU64(adam_t, "adam step count") ||
        !r.readU64(num_params, "parameter count"))
        return r.status;
    loaded.epochsCompleted = int64_t(epochs);
    loaded.lastK = int64_t(last_k);
    loaded.adamStepCount = int64_t(adam_t);
    if (loaded.epochsCompleted < 0 || loaded.lastK < 1 ||
        loaded.adamStepCount < 0 || num_params > (1u << 20))
        return {IoError::CorruptValues,
                "'" + path + "': implausible checkpoint header"};
    loaded.params.resize(num_params);
    loaded.adamM.resize(num_params);
    loaded.adamV.resize(num_params);
    for (size_t i = 0; i < num_params; ++i) {
        if (!r.readTensor(loaded.params[i], "parameter") ||
            !r.readTensor(loaded.adamM[i], "adam m") ||
            !r.readTensor(loaded.adamV[i], "adam v"))
            return r.status;
        if (!loaded.adamM[i].sameShape(loaded.params[i]) ||
            !loaded.adamV[i].sameShape(loaded.params[i]))
            return {IoError::ShapeMismatch,
                    "'" + path + "': moment tensor " +
                        std::to_string(i) +
                        " does not match its parameter's shape"};
    }
    uint64_t warm_k = 0, cold_cut = 0, cold_weight = 0, num_outputs = 0;
    if (!r.readU64(warm_k, "warm-start K") ||
        !r.readU64(cold_cut, "warm-start cold cut") ||
        !r.readU64(cold_weight, "warm-start cold edge weight") ||
        !r.readU64(num_outputs, "warm-start output count"))
        return r.status;
    if (warm_k > uint64_t(std::numeric_limits<int32_t>::max()) ||
        int64_t(cold_cut) < 0 || int64_t(cold_weight) < 0 ||
        num_outputs > r.remaining / (2 * sizeof(uint64_t)))
        return {IoError::CorruptValues,
                "'" + path + "': implausible warm-start header"};
    WarmStartState& warm = loaded.warmStart;
    warm.k = int32_t(warm_k);
    warm.coldCut = int64_t(cold_cut);
    warm.coldEdgeWeight = int64_t(cold_weight);
    warm.outputs.resize(num_outputs);
    warm.parts.resize(num_outputs);
    for (size_t i = 0; i < num_outputs; ++i) {
        uint64_t node = 0, part = 0;
        if (!r.readU64(node, "warm-start output") ||
            !r.readU64(part, "warm-start part"))
            return r.status;
        if (part >= warm_k)
            return {IoError::CorruptValues,
                    "'" + path + "': warm-start part id out of range"};
        warm.outputs[i] = int64_t(node);
        warm.parts[i] = int32_t(part);
    }
    if (r.remaining != 0)
        return {IoError::CorruptValues,
                "'" + path + "': trailing bytes after the payload"};
    checkpoint = std::move(loaded);
    return {};
}

TrainCheckpoint
captureCheckpoint(const GnnModel& model, const Adam& adam,
                  int64_t epochs_completed, int64_t last_k,
                  uint64_t sampler_seed, uint64_t sampler_call_index)
{
    HostAllocationScope host_alloc;
    TrainCheckpoint checkpoint;
    checkpoint.epochsCompleted = epochs_completed;
    checkpoint.lastK = last_k;
    checkpoint.samplerSeed = sampler_seed;
    checkpoint.samplerCallIndex = sampler_call_index;
    checkpoint.adamStepCount = adam.stepCount();
    for (const auto& p : model.parameters()) {
        Tensor copy(p->value.rows(), p->value.cols());
        std::copy_n(p->value.data(), p->value.numel(), copy.data());
        checkpoint.params.push_back(std::move(copy));
    }
    auto copyAll = [](const std::vector<Tensor>& source,
                      std::vector<Tensor>& dest) {
        for (const Tensor& t : source) {
            Tensor copy(t.rows(), t.cols());
            std::copy_n(t.data(), t.numel(), copy.data());
            dest.push_back(std::move(copy));
        }
    };
    copyAll(adam.firstMoments(), checkpoint.adamM);
    copyAll(adam.secondMoments(), checkpoint.adamV);
    return checkpoint;
}

IoStatus
restoreCheckpoint(const TrainCheckpoint& checkpoint, GnnModel& model,
                  Adam& adam)
{
    const auto& params = model.parameters();
    if (checkpoint.params.size() != params.size())
        return {IoError::ShapeMismatch,
                "checkpoint has " +
                    std::to_string(checkpoint.params.size()) +
                    " parameters, the model has " +
                    std::to_string(params.size())};
    for (size_t i = 0; i < params.size(); ++i)
        if (!checkpoint.params[i].sameShape(params[i]->value))
            return {IoError::ShapeMismatch,
                    "checkpoint parameter " + std::to_string(i) +
                        " shape differs from the model's"};

    // Moments are validated (and copied) by Adam itself; do that
    // FIRST so a bad optimizer section leaves the weights untouched.
    HostAllocationScope host_alloc;
    std::vector<Tensor> m, v;
    auto copyAll = [](const std::vector<Tensor>& source,
                      std::vector<Tensor>& dest) {
        for (const Tensor& t : source) {
            Tensor copy(t.rows(), t.cols());
            std::copy_n(t.data(), t.numel(), copy.data());
            dest.push_back(std::move(copy));
        }
    };
    copyAll(checkpoint.adamM, m);
    copyAll(checkpoint.adamV, v);
    if (!adam.restoreState(checkpoint.adamStepCount, std::move(m),
                           std::move(v)))
        return {IoError::ShapeMismatch,
                "checkpoint optimizer state does not match the "
                "model's parameters"};

    for (size_t i = 0; i < params.size(); ++i)
        std::copy_n(checkpoint.params[i].data(),
                    checkpoint.params[i].numel(),
                    params[i]->value.data());
    return {};
}

} // namespace betty
